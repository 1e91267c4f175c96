"""The per-node rendering memo of ``BDDManager.to_expr_string``.

A rendering is memoized per node id.  Sifting changes the cube order of
the nodes it keeps and hands the slots of the nodes it retires to new
nodes, so the memo must not outlive a reorder: after ``sift`` every
rendering must equal a fresh, uncached cube enumeration of the node and
still denote the node's Boolean function.
"""

from hypothesis import given, settings, strategies as st

from repro.bdd import BDDManager
from repro.constraints.formula import parse_formula
from tests.bdd.test_properties import VARS, all_assignments, formulas


def uncached(mgr: BDDManager, node: int) -> str:
    """``to_expr_string`` without the memo: enumerate the cubes now."""
    if node == mgr.false:
        return "false"
    if node == mgr.true:
        return "true"
    return " | ".join(
        " & ".join(name if positive else f"!{name}" for name, positive in cube)
        for cube in mgr._iter_cubes(node)
    )


def denotes(mgr: BDDManager, text: str, node: int) -> bool:
    """Does the rendered ``text`` denote the same function as ``node``?"""
    reparsed = parse_formula(text)
    return all(
        reparsed.evaluate(assignment) == mgr.evaluate(node, assignment)
        for assignment in all_assignments()
    )


@given(
    st.lists(formulas(), min_size=1, max_size=4),
    st.lists(formulas(), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_memo_matches_uncached_rendering_across_sift(forms, later):
    mgr = BDDManager(ordering=VARS)
    nodes = [f.to_bdd(mgr) for f in forms]
    # Fill the memo, and also for intermediate nodes sift will retire.
    scratch = [mgr.not_(node) for node in nodes]
    for node in nodes + scratch:
        assert mgr.to_expr_string(node) == uncached(mgr, node)
    mgr.sift(nodes)
    for node in nodes:
        rendered = mgr.to_expr_string(node)
        assert rendered == uncached(mgr, node)
        assert denotes(mgr, rendered, node)
    # New nodes may take the slots of retired ones; the memo must not
    # hand them a retired node's rendering.
    for f in later:
        node = f.to_bdd(mgr)
        rendered = mgr.to_expr_string(node)
        assert rendered == uncached(mgr, node)
        assert denotes(mgr, rendered, node)


def test_rendering_is_memoized_per_node():
    mgr = BDDManager(ordering=("x", "y"))
    f = mgr.or_(mgr.var("x"), mgr.var("y"))
    first = mgr.to_expr_string(f)
    assert mgr.to_expr_string(f) is first


def test_sift_clears_the_memo():
    mgr = BDDManager(ordering=("x", "y", "z"))
    f = mgr.and_(mgr.var("x"), mgr.or_(mgr.var("y"), mgr.var("z")))
    mgr.to_expr_string(f)
    assert mgr._render_cache
    mgr.sift([f])
    assert not mgr._render_cache


def test_declaring_a_variable_keeps_renderings():
    mgr = BDDManager(ordering=("x", "y"))
    f = mgr.and_(mgr.var("x"), mgr.nvar("y"))
    before = mgr.to_expr_string(f)
    mgr.var("z")
    assert mgr.to_expr_string(f) == before == uncached(mgr, f)
