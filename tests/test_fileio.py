import pytest

from spinwreath import catalog, fileio, groups
from spinwreath.actions import WreathContext, cyclic_rotation_action
from spinwreath.errors import FileFormatInvalid
from spinwreath.strategies import Strategy


def test_group_round_trip_with_labels(tmp_path):
    g = groups.symmetric(3)
    path = tmp_path / "s3.group"
    fileio.save_group(g, str(path))
    back = fileio.load_group(str(path))
    assert back.mul == g.mul and back.inv == g.inv
    assert back.labels == g.labels
    assert back.is_associative


def test_loop_round_trip(tmp_path):
    l5 = groups.loop5()
    path = tmp_path / "l5.group"
    fileio.save_group(l5, str(path))
    back = fileio.load_group(str(path))
    assert not back.is_associative
    assert back.mul == l5.mul


def test_group_files_allow_comments_and_blanks():
    text = """
    # a two-element group
    group Z2 2

    0 1  # identity row
    1 0
    """
    g = fileio.parse_group(text)
    assert g.order == 2 and g.mul[1][1] == 0


@pytest.mark.parametrize("text", [
    "",
    "group Z2\n0 1\n1 0",            # missing order
    "ring Z2 2\n0 1\n1 0",           # unknown header
    "group Z2 2\n0 1",               # not enough rows
    "group Z2 2\n0 x\n1 0",          # non-integer entry
    "group Z2 2\n0 1\n1 0\nlabels e",  # labels arity
    "group Z2 2\n0 1\n1 0\nextra 1",   # junk line
])
def test_malformed_group_files_are_rejected(text):
    with pytest.raises(FileFormatInvalid):
        fileio.parse_group(text)


@pytest.mark.parametrize("order", ["-1", "0"])
def test_group_orders_below_one_are_rejected(order):
    with pytest.raises(FileFormatInvalid, match="bad group order"):
        fileio.parse_group(f"group G {order}\n0\n")


def test_action_round_trip(tmp_path):
    a = cyclic_rotation_action(4)
    path = tmp_path / "rot4.action"
    fileio.save_action(a, str(path))
    back = fileio.load_action(str(path), a.h_group)
    assert back.act == a.act and back.omega_size == 4


def test_action_row_count_must_match_the_spin_group():
    a = cyclic_rotation_action(3)
    text = fileio.format_action(a)
    with pytest.raises(FileFormatInvalid):
        fileio.parse_action(text, groups.cyclic(2))


def test_action_rows_must_be_permutations():
    with pytest.raises(FileFormatInvalid):
        fileio.parse_action("action C2 2\n0 1\n0 0", groups.cyclic(2))


def test_context_round_trip(tmp_path):
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(4),
                        win_set={0, 15}, name="pair of winners")
    g_path, h_path, a_path = "g.group", "h.group", "spin.action"
    fileio.save_group(ctx.g_group, str(tmp_path / g_path))
    fileio.save_group(ctx.action.h_group, str(tmp_path / h_path))
    fileio.save_action(ctx.action, str(tmp_path / a_path))
    text = fileio.format_context(ctx, g_path, h_path, a_path)
    assert "win 0 15" in text
    ctx_path = tmp_path / "puzzle.context"
    ctx_path.write_text(text)
    back = fileio.load_context(str(ctx_path))
    assert back.name == "pair of winners"
    assert back.win_set == frozenset({0, 15})
    assert back.k_size == ctx.k_size


def test_context_requires_all_three_parts(tmp_path):
    (tmp_path / "broken.context").write_text("context x\ngroup g.group\n")
    with pytest.raises(FileFormatInvalid):
        fileio.load_context(str(tmp_path / "broken.context"))


def test_context_win_index_outside_k_is_rejected(tmp_path):
    # Z2 wr C2 has |K| = 4, so the win index 99 names no base vector
    action = cyclic_rotation_action(2)
    fileio.save_group(groups.cyclic(2), str(tmp_path / "g.group"))
    fileio.save_group(action.h_group, str(tmp_path / "h.group"))
    fileio.save_action(action, str(tmp_path / "spin.action"))
    (tmp_path / "far.context").write_text(
        "context far\ngroup g.group\nspin-group h.group\n"
        "action spin.action\nwin 99\n")
    with pytest.raises(FileFormatInvalid):
        fileio.load_context(str(tmp_path / "far.context"))


def test_strategy_round_trip(tmp_path):
    ctx = catalog.four_switches_context()
    strat = catalog.four_switches_strategy(ctx)
    path = tmp_path / "four.strategy"
    fileio.save_strategy(strat, str(path))
    back = fileio.load_strategy(str(path), ctx)
    assert back.moves == strat.moves
    # the written file is byte-stable under a second round trip
    assert fileio.format_strategy(back) == path.read_text()


def test_strategy_header_survives_spaces_in_context_names():
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(2),
                        name="two switches, spun")
    strat = Strategy(ctx=ctx, moves=(3, 2, 3))
    back = fileio.parse_strategy(fileio.format_strategy(strat), ctx)
    assert back.moves == strat.moves


@pytest.mark.parametrize("text", [
    "",
    "strategy x\n1 1",           # header missing the count
    "strategy x 2\n1 1",         # fewer rows than declared
    "strategy x 1\n1 1 1",       # wrong arity for the context
    "strategy x 1\n7 0",         # coordinate out of range
])
def test_malformed_strategy_files_are_rejected(text):
    ctx = WreathContext(g_group=groups.cyclic(2),
                        action=cyclic_rotation_action(2))
    with pytest.raises(FileFormatInvalid):
        fileio.parse_strategy(text, ctx)
