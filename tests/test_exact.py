"""Reference integer program: model rows, LP text, tiny-instance optimum."""

import hashlib
import math
import os
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (_tight_instance, make_demand, make_graph,
                     reference_build_model, reference_validate_solution,
                     tiny_instance, triangle_graph)
from vnfplace import exact
from vnfplace.exact import (BINARY, Constraint, ExactLimitError, MilpModel,
                            Variable, build_model, export_lp,
                            extract_assignment, solve_exact_small,
                            validate_solution)
from vnfplace.power import total_power
from vnfplace.placement import bc_place_all, place_all
from vnfplace.topology import (CPU, FunctionType, NetworkGraph, PowerParams,
                               TopologyError, default_catalogs, nobel_germany)
from vnfplace.workload import generate_demands

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "triangle_model.lp")

FN_A = FunctionType("A", {CPU: 4}, 200.0, 10.0)
FN_B = FunctionType("B", {CPU: 4}, 200.0, 10.0)
FN_C = FunctionType("C", {CPU: 4}, 200.0, 10.0)

BETAS = [900.0, 700.0, 500.0, 300.0]


def _triangle_demand(bandwidth=20.0, budget=50.0, chain=(FN_A,)):
    return make_demand(0, 0, 1, chain, bandwidth, budget)


def test_model_shape_on_a_triangle():
    graph = triangle_graph()
    model = build_model(graph, [_triangle_demand()])
    assert len(model.variables) == 33
    kinds = [v.kind for v in model.variables.values()]
    assert kinds.count("binary") == 30
    assert kinds.count("integer") == 3
    for i in range(3):
        assert model.variables["z_%d_A" % i].ub == 4
    assert len(model.constraints) == 38

    rows = {c.name: c for c in model.constraints}
    assert rows["resource_n0_cpu"].coeffs == {"z_0_A": 4}
    assert rows["resource_n0_cpu"].rhs == 16
    assert rows["processing_n0_A"].coeffs == {"u_0_1_0": 20.0, "z_0_A": -200.0}
    assert rows["linkcap_0_1"].coeffs == {"w_0_1_0_0": 20.0, "w_0_1_1_0": 20.0}
    assert rows["linkcap_0_1"].rhs == 1000.0
    assert rows["mapping_n2_k1_d0"].coeffs == {"u_2_1_0": 1.0, "z_2_A": -1.0}
    assert rows["delay_d0"].rhs == 50.0
    assert rows["delay_d0"].coeffs["u_0_1_0"] == 10.0
    assert rows["delay_d0"].coeffs["w_0_1_0_0"] == 0.1
    assert rows["flow_d0_e0_n0"].coeffs == {
        "w_0_1_0_0": 1.0, "w_1_0_0_0": -1.0,
        "w_0_2_0_0": 1.0, "w_2_0_0_0": -1.0,
        "u_0_0_0": -1.0, "u_0_1_0": 1.0}
    assert rows["flow_d0_e0_n0"].sense == "="
    assert rows["endpoint_src_d0_n0"].rhs == 1.0
    assert rows["endpoint_src_d0_n2"].rhs == 0.0
    assert rows["place_once_k1_d0"].coeffs == {
        "u_0_1_0": 1.0, "u_1_1_0": 1.0, "u_2_1_0": 1.0}
    # indicator couplings carry the documented big coefficients
    assert rows["cable_on_0_1"].coeffs["l_0_1"] == -2.0
    assert rows["switch_on_0"].coeffs["y_0"] == -6.0
    assert rows["pm_on_0"].coeffs == {"z_0_A": 1.0, "x_0": -4.0}

    assert model.objective["x_0"] == 150.0
    assert model.objective["z_0_A"] == 25.0
    assert model.objective["y_0"] == 130.0
    assert model.objective["l_0_1"] == 2.0


def test_model_rejects_bad_demands():
    graph = triangle_graph()
    one = _triangle_demand()
    with pytest.raises(ValueError, match="demand id 0 repeats"):
        build_model(graph, [one, one])
    with pytest.raises(ValueError, match="outside the graph"):
        build_model(graph, [make_demand(0, 0, 7, (FN_A,), 1.0, 50.0)])
    clash = FunctionType("A", {CPU: 8}, 200.0, 10.0)
    with pytest.raises(ValueError, match="conflicting definitions"):
        build_model(graph, [make_demand(0, 0, 1, (FN_A,), 1.0, 50.0),
                            make_demand(1, 1, 2, (clash,), 1.0, 50.0)])


def test_lp_matches_golden_file():
    graph = triangle_graph()
    text = export_lp(build_model(graph, [_triangle_demand()]))
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        assert text == fh.read()
    # a rebuilt model renders byte-identical
    assert export_lp(build_model(graph, [_triangle_demand()])) == text


_NAME = re.compile(r"[A-Za-z_]\w*$")


def _lp_row_names(text):
    """Every variable name on the objective and constraint lines."""
    names = set()
    for line in text.splitlines():
        if ": " in line:
            names.update(t for t in line.split(": ", 1)[1].split()
                         if _NAME.match(t))
    return names


def test_lp_rows_without_terms_name_a_declared_variable():
    # no demand crosses any link, so every linkcap row is an empty sum
    model = build_model(triangle_graph(), [])
    text = export_lp(model)
    assert " linkcap_0_1: 0 x_0 <= 1000\n" in text
    assert text.count(": ") == 1 + len(model.constraints)
    assert _lp_row_names(text) <= set(model.variables)


def test_lp_export_of_a_graph_without_nodes_is_refused():
    # the graph refuses it, before the model or its LP text is built
    with pytest.raises(TopologyError, match="^topology defines no nodes$"):
        export_lp(build_model(NetworkGraph([], []), []))


def test_empty_model_is_trivially_optimal():
    sol = solve_exact_small(build_model(triangle_graph(), []))
    assert sol.status == "optimal"
    assert sol.objective == 0.0
    assert sol.allocations == []
    assert total_power(sol.state) == 0.0
    assert sol.assignment == {}
    assert sol.state.snapshot() == "\n"
    assert repr(sol.objective) == "0.0"


def test_exact_optimum_on_the_triangle():
    graph = triangle_graph()
    model = build_model(graph, [_triangle_demand()])
    sol = solve_exact_small(model)
    assert sol.status == "optimal"
    # one cable, two switches, one quarter-loaded PM
    assert sol.objective == pytest.approx(437.0)
    assert sol.allocations[0].assignments[0].node == 0
    assert total_power(sol.state) == pytest.approx(437.0)
    assert sol.state.validate() == []
    assert validate_solution(model, sol.assignment, sol.objective) == []


def test_tight_budget_forces_the_long_way_round():
    # direct cable too slow, optimum pays for the two-cable detour
    graph = triangle_graph(delays=(10.0, 0.1, 0.1))
    model = build_model(graph, [_triangle_demand(budget=15.0)])
    sol = solve_exact_small(model)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(569.0)
    route = sol.allocations[0].route
    assert [(l.src, l.dst) for l in route.links()] == [(0, 2), (2, 1)]
    assert validate_solution(model, sol.assignment, sol.objective) == []


def test_impossible_budget_is_infeasible():
    model = build_model(triangle_graph(), [_triangle_demand(budget=5.0)])
    sol = solve_exact_small(model)
    assert sol.status == "infeasible"
    assert sol.objective is None
    assert sol.state is None


def test_size_limits_point_at_the_lp_export():
    line7 = make_graph(7, [(i, i + 1, 1000.0, 0.1) for i in range(6)])
    with pytest.raises(ExactLimitError, match="nodes.*use export_lp"):
        solve_exact_small(build_model(line7, [make_demand(0, 0, 1, (FN_A,),
                                                          1.0, 50.0)]))
    k5 = make_graph(5, [(a, b, 1000.0, 0.1)
                        for a in range(5) for b in range(a + 1, 5)])
    with pytest.raises(ExactLimitError, match="cables.*use export_lp"):
        solve_exact_small(build_model(k5, [make_demand(0, 0, 1, (FN_A,),
                                                       1.0, 50.0)]))
    graph = triangle_graph()
    crowd = [make_demand(i, 0, 1, (FN_A,), 1.0, 50.0) for i in range(4)]
    with pytest.raises(ExactLimitError, match="demands.*use export_lp"):
        solve_exact_small(build_model(graph, crowd))
    deep = [make_demand(0, 0, 1, (FN_A, FN_B, FN_C), 1.0, 50.0)]
    with pytest.raises(ExactLimitError, match="chain.*use export_lp"):
        solve_exact_small(build_model(graph, deep))


def test_congestion_regimes_are_refused():
    graph = triangle_graph()
    heavy = [_triangle_demand(bandwidth=600.0)]
    with pytest.raises(ExactLimitError, match="congest.*use export_lp"):
        solve_exact_small(build_model(graph, heavy))
    pair = [make_demand(0, 0, 1, (FN_A,), 150.0, 50.0),
            make_demand(1, 1, 2, (FN_A,), 150.0, 50.0)]
    with pytest.raises(ExactLimitError, match="one instance.*use export_lp"):
        solve_exact_small(build_model(graph, pair))


def test_validator_flags_corruption():
    model = build_model(triangle_graph(), [_triangle_demand()])
    sol = solve_exact_small(model)
    good = dict(sol.assignment)
    assert validate_solution(model, good, sol.objective) == []

    broken = dict(good)
    broken.pop("x_0", None)                  # PM hosts an instance while off
    bad = validate_solution(model, broken)
    assert any("pm_on_0" in line for line in bad)

    broken = dict(good)
    broken["u_0_1_0"] = 0.5
    bad = validate_solution(model, broken)
    assert any("not integral" in line for line in bad)

    broken = dict(good)
    broken["z_0_A"] = 9.0
    bad = validate_solution(model, broken)
    assert any("outside" in line for line in bad)

    broken = dict(good)
    broken["phantom"] = 1.0
    assert any("unknown variable" in line
               for line in validate_solution(model, broken))

    bad = validate_solution(model, good, sol.objective + 10.0)
    assert any("objective mismatch" in line for line in bad)


def test_validator_reports_values_that_are_not_finite():
    model = build_model(triangle_graph(), [_triangle_demand()])
    sol = solve_exact_small(model)
    for value in (math.nan, math.inf, -math.inf):
        broken = dict(sol.assignment)
        broken["x_0"] = value
        broken["u_0_1_0"] = 0.5
        bad = validate_solution(model, broken, sol.objective)
        assert "x_0 = %r is not finite" % value in bad
        # the other values and the rows are still checked
        assert "u_0_1_0 = 0.5 is not integral" in bad
        assert any(line.startswith("objective mismatch") for line in bad)
    bad = validate_solution(model, {"x_0": math.nan}, math.nan)
    assert "x_0 = nan is not finite" in bad
    assert any("pm_on_0 violated: lhs nan" in line for line in bad)
    assert validate_solution(model, sol.assignment, math.nan) == [
        "objective mismatch: %r vs nan" % sol.objective]


def test_validator_reports_values_that_are_not_numbers():
    model = build_model(triangle_graph(), [_triangle_demand()])
    sol = solve_exact_small(model)
    for value in ("abc", None, 1 + 0j, 10 ** 400):
        broken = dict(sol.assignment)
        broken["x_0"] = value
        broken["u_0_1_0"] = 0.5
        bad = validate_solution(model, broken, sol.objective)
        # the value counts as zero, and the rest is still checked
        assert bad[0] == "x_0 = %r is not a number" % (value,)
        assert "u_0_1_0 = 0.5 is not integral" in bad
        assert any("pm_on_0 violated" in line for line in bad)
        assert bad[1:] == validate_solution(
            model, dict(broken, x_0=0.0), sol.objective)
    for objective in ("abc", None, 1 + 0j, 10 ** 400, [437.0]):
        bad = validate_solution(model, sol.assignment, objective)
        assert bad == ([] if objective is None else
                       ["objective = %r is not a number" % (objective,)])
    bad = validate_solution(model, {"x_0": "abc", "phantom": "abc"}, "abc")
    assert bad[:2] == ["x_0 = 'abc' is not a number",
                       "unknown variable phantom"]
    assert bad[-1] == "objective = 'abc' is not a number"


def _hand_model():
    """Rows over integer variables without an upper bound, with negative
    ones (inside and beyond the tolerance), and a row without terms."""
    m = MilpModel(triangle_graph(), [])
    m.variables = {"b": BINARY, "free": Variable("integer")}
    for name, ub in (("neg", -1), ("tiny", -1e-7), ("flat", 0), ("two", 2)):
        m.variables[name] = Variable("integer", ub)
    m.constraints = [
        Constraint("cap", {"b": 1.0, "free": 2.0}, "<=", 3.0),
        Constraint("floor", {"neg": 1.0, "tiny": -1.0}, ">=", -1.0),
        Constraint("tie", {"two": 1.0, "b": -1.0}, "=", 1.0),
        Constraint("none", {}, "<=", 0.0)]
    m.objective = {"b": 3.0, "two": 1.5, "neg": -2.0}
    return m


def _validator_models():
    """(model, optimal assignment or {}) pairs for the validator property."""
    rng = random.Random(31)
    models = [build_model(triangle_graph(), [_triangle_demand()]),
              build_model(triangle_graph(), [])]
    models += [build_model(*tiny_instance(rng)) for _ in range(4)]
    pairs = [(model, solve_exact_small(model).assignment) for model in models]
    return pairs + [(_hand_model(), {"b": 1.0, "two": 2.0})]


VALIDATOR_MODELS = _validator_models()
VALUES = [0.0, -0.0, 0.5, 1e-7, 1.0, -1.0, 9.0, math.nan, math.inf,
          -math.inf]


@settings(max_examples=300, deadline=None)
@given(pick=st.integers(0, len(VALIDATOR_MODELS) - 1),
       from_solution=st.booleans(),
       entries=st.lists(st.tuples(st.integers(0, 10 ** 6),
                                  st.sampled_from(VALUES)), max_size=12),
       unknown=st.lists(st.sampled_from(["phantom", "x_99", "z_0_Q"]),
                        max_size=2),
       objective=st.one_of(st.none(), st.sampled_from(
           [math.nan, math.inf, 0.0, 1e-7, -1e-5, 10.0])))
def test_validator_equals_the_reference(pick, from_solution, entries,
                                        unknown, objective):
    """validate_solution reports exactly what reference_validate_solution
    does, in order, for values on and off every domain, unknown names,
    and objectives that match, miss or are NaN (an objective other than
    None or NaN is drawn as a shift from the assignment's own)."""
    model, solution = VALIDATOR_MODELS[pick]
    declared = list(model.variables)
    assignment = dict(solution) if from_solution else {}
    for index, value in entries:
        assignment[declared[index % len(declared)]] = value
    for name in unknown:
        assignment[name] = 1.0
    if objective is not None and not math.isnan(objective):
        objective += sum(coeff * float(assignment.get(name, 0.0))
                         for name, coeff in model.objective.items())
    assert (validate_solution(model, assignment, objective)
            == reference_validate_solution(model, assignment, objective))


class _Untouchable:
    """Stands for a model attribute that must not be read at all."""

    def __init__(self, what):
        self.what = what

    def __getattr__(self, attr):
        raise AssertionError("%s.%s was read" % (self.what, attr))

    def _refuse(self, *args):
        raise AssertionError("%s was read" % self.what)

    __iter__ = __len__ = __getitem__ = __contains__ = __bool__ = _refuse


def test_solver_and_bridge_never_read_rows_or_objective():
    """solve_exact_small and extract_assignment work from the graph, the
    demands and the name tables alone; the rows and the objective are for
    validate_solution and export_lp."""
    rng = random.Random(33)
    solved = 0
    for _ in range(30):
        graph, demands = tiny_instance(rng)
        model = build_model(graph, demands)
        model.constraints = _Untouchable("model.constraints")
        model.objective = _Untouchable("model.objective")
        sol = solve_exact_small(model)
        if sol.status != "optimal":
            continue
        assert extract_assignment(model, sol.state) == sol.assignment
        solved += 1
    assert solved >= 20
    graph = triangle_graph()
    model = build_model(graph, [_triangle_demand()])
    heur = place_all(graph, [_triangle_demand()], BETAS)
    model.constraints = _Untouchable("model.constraints")
    model.objective = _Untouchable("model.objective")
    assert extract_assignment(model, heur.state)


def test_heuristic_state_satisfies_the_program():
    graph = triangle_graph()
    demands = [_triangle_demand()]
    model = build_model(graph, demands)
    sol = place_all(graph, demands, BETAS)
    assert sol.acceptance == 1.0
    assignment = extract_assignment(model, sol.state)
    assert validate_solution(model, assignment, sol.total_power_w) == []
    with pytest.raises(ValueError, match="not allocated"):
        extract_assignment(build_model(graph, [make_demand(5, 0, 2, (FN_A,),
                                                           1.0, 50.0)]),
                           sol.state)


def test_bridge_refuses_a_state_with_demands_outside_the_model():
    # a model over one of two placed demands has no names for the other's
    # resources; an assignment would count them against the wrong demand
    graph = triangle_graph()
    demands = [_triangle_demand(),
               make_demand(1, 1, 2, (FN_B,), 5.0, 50.0)]
    sol = place_all(graph, demands, BETAS)
    assert sol.acceptance == 1.0
    with pytest.raises(ValueError, match="^state holds 2 allocations, the "
                                         "model 1 demands$"):
        extract_assignment(build_model(graph, demands[:1]), sol.state)


def test_bridge_refuses_a_state_whose_demand_has_another_chain():
    # the state's demand 0 runs A; each model's demand 0 asks for B, or
    # for A twice, so no assignment can describe the placed chain
    graph = triangle_graph()
    sol = place_all(graph, [_triangle_demand()], BETAS)
    assert sol.acceptance == 1.0
    for chain, want in (((FN_B,), "['B']"), ((FN_A, FN_A), "['A', 'A']")):
        model = build_model(graph, [_triangle_demand(chain=chain)])
        with pytest.raises(ValueError, match=re.escape(
                "demand 0 is placed with chain ['A'], the model's is "
                + want)):
            extract_assignment(model, sol.state)


def test_heuristic_never_beats_the_optimum():
    rng = random.Random(777)
    solved = 0
    while solved < 25:
        graph, demands = tiny_instance(rng)
        model = build_model(graph, demands)
        exact = solve_exact_small(model)
        if exact.status != "optimal":
            continue
        assert validate_solution(model, exact.assignment,
                                 exact.objective) == []
        heur = place_all(graph, demands, BETAS)
        if heur.acceptance < 1.0:
            continue
        assert heur.total_power_w >= exact.objective - 1e-6
        solved += 1


def _network_power(graph, mask):
    """Switch and port power of the cables lit in `mask` (bit i is
    graph.cables()[i])."""
    lit = [c for i, c in enumerate(graph.cables()) if mask >> i & 1]
    params = graph.power
    return (params.switch_static_w * len({s for c in lit for s in c})
            + 2.0 * params.port_w * len(lit))


def _detours(graph, demands, sol):
    """Segments of an optimal solution slower than the shortest path
    between their ends over every cable."""
    cables = graph.cables()
    dist, _ = exact._subset_distances(graph, (1 << len(cables)) - 1, cables)
    count = 0
    for d, alloc in zip(demands, sol.allocations):
        waypoints = [d.src] + [a.node for a in alloc.assignments] + [d.dst]
        for a, b, seg in zip(waypoints, waypoints[1:], alloc.route.segments):
            count += sum(l.delay for l in seg) > dist[a][b] + 1e-9
    return count


def test_solve_exact_small_fingerprint_is_pinned(monkeypatch):
    """sha1 over status, objective and state snapshot of 300 seeded tiny
    instances: 200 drawn as gate 05 draws them, 100 on 4- or 8-core PMs
    with 21-30 ms budgets. The sweep reaches infeasible instances, optimal
    routes that detour from the shortest path over every cable, and
    instance-usage sets that some PM cannot host."""
    unhostable = Counter()
    real = exact._pm_power_of

    def counting(*args):
        power = real(*args)
        unhostable[power is None] += 1
        return power

    monkeypatch.setattr(exact, "_pm_power_of", counting)
    rng = random.Random(18)
    instances = [tiny_instance(rng) for _ in range(200)]
    instances += [tiny_instance(rng, cores=rng.choice([4, 8]),
                                budgets=(21.0, 25.0, 30.0))
                  for _ in range(100)]
    digest = hashlib.sha1()
    statuses = Counter()
    detours = 0
    for graph, demands in instances:
        sol = solve_exact_small(build_model(graph, demands))
        statuses[sol.status] += 1
        digest.update(("%s %r\n" % (sol.status, sol.objective)).encode())
        digest.update((sol.state.snapshot() if sol.state is not None
                       else "infeasible\n").encode())
        if sol.status == "optimal":
            detours += _detours(graph, demands, sol)
    assert statuses["infeasible"] > 0 and detours > 0 and unhostable[True] > 0
    assert digest.hexdigest() == "34e675f4591097786774ee1235c47eb919b0fa00"


def test_model_assignments_are_pinned():
    """sha1 over the sorted model assignment of every solution the 300
    tiny instances of the fingerprint pin reach, then over
    extract_assignment of lbi, hbi and bc runs of 30 tight instances,
    each against a model of that run's accepted demands, which the
    assignment must satisfy."""
    rng = random.Random(18)
    instances = [tiny_instance(rng) for _ in range(200)]
    instances += [tiny_instance(rng, cores=rng.choice([4, 8]),
                                budgets=(21.0, 25.0, 30.0))
                  for _ in range(100)]
    digest = hashlib.sha1()
    for graph, demands in instances:
        sol = solve_exact_small(build_model(graph, demands))
        digest.update(("%r\n" % sorted(sol.assignment.items())).encode())
    for seed in range(30):
        graph, demands, betas = _tight_instance(seed)
        for sol in (place_all(graph, demands, betas, mode="lbi"),
                    place_all(graph, demands, betas, mode="hbi"),
                    bc_place_all(graph, demands)):
            accepted = [o.demand for o in sol.outcomes if o.accepted]
            model = build_model(graph, accepted)
            assignment = extract_assignment(model, sol.state)
            assert validate_solution(model, assignment,
                                     sol.total_power_w) == []
            digest.update(("%r\n" % sorted(assignment.items())).encode())
    assert digest.hexdigest() == "cdc460287b3ac101ab09935d2ffffbafd319d89c"


# Power settings under which many placements cost the same: a flat PM
# draw, free switches, free switches with PMs that idle at 0 W; then
# the defaults.
TIE_POWER = [PowerParams(pm_max_w=150.0),
             PowerParams(switch_static_w=0.0, port_w=0.0),
             PowerParams(switch_static_w=0.0, port_w=0.0, pm_idle_w=0.0),
             PowerParams()]


def _with_power(graph, params):
    cables = [(a, b, graph.link(a, b).capacity, graph.link(a, b).delay)
              for a, b in graph.cables()]
    return NetworkGraph(graph.nodes, cables, params)


def test_tied_optima_are_pinned():
    """sha1 over status, objective, sorted assignment and state snapshot
    of 150 seeded tiny instances on 4-, 8- and 16-core PMs with 21-100 ms
    budgets, each solved under every TIE_POWER setting. Equal-power optima
    abound there, so a search that drops or reorders a tied candidate
    changes the winner."""
    rng = random.Random(27)
    draws = [tiny_instance(rng, cores=cores,
                           budgets=(21.0, 25.0, 30.0, 100.0))
             for cores in (4, 8, 16) for _ in range(50)]
    digest = hashlib.sha1()
    statuses = Counter()
    for graph, demands in draws:
        for params in TIE_POWER:
            sol = solve_exact_small(build_model(_with_power(graph, params),
                                                demands))
            statuses[sol.status] += 1
            digest.update(("%s %r %r\n" % (sol.status, sol.objective,
                                           sorted(sol.assignment.items())))
                          .encode())
            digest.update((sol.state.snapshot() if sol.state is not None
                           else "infeasible\n").encode())
    assert statuses["optimal"] > 400 and statuses["infeasible"] > 0
    assert digest.hexdigest() == "fe737e573c936ced935a10041fbf026026fbf5e0"


def test_exact_search_computes_distances_only_for_subsets_it_reaches(
        monkeypatch):
    """Every cable subset other than the full set whose distances are
    computed has network power at most the optimum: the ascending-power
    search stops before any dearer subset. Each subset is computed once."""
    computed = []
    real = exact._subset_distances

    def counting(graph, mask, cables):
        computed.append(mask)
        return real(graph, mask, cables)

    monkeypatch.setattr(exact, "_subset_distances", counting)
    rng = random.Random(41)
    checked = 0
    for _ in range(80):
        graph, demands = tiny_instance(rng)
        computed.clear()
        sol = solve_exact_small(build_model(graph, demands))
        assert len(computed) == len(set(computed))
        if sol.status != "optimal":
            continue
        full = (1 << len(graph.cables())) - 1
        for mask in computed:
            if mask != full:
                assert _network_power(graph, mask) <= sol.objective + 1e-9
        checked += 1
    assert checked >= 70

    # a ring of six with two chords: the cheap subsets settle it
    ring = [(i, (i + 1) % 6, 1000.0, 1.0) for i in range(6)]
    graph = make_graph(6, ring + [(0, 3, 1000.0, 0.5), (1, 4, 1000.0, 0.5)],
                       cores=16)
    assert len(graph.cables()) == 8
    demands = [make_demand(0, 0, 3, (FN_A, FN_B), 5.0, 30.0),
               make_demand(1, 2, 5, (FN_C,), 5.0, 30.0)]
    computed.clear()
    model = build_model(graph, demands)
    sol = solve_exact_small(model)
    assert sol.status == "optimal"
    assert validate_solution(model, sol.assignment, sol.objective) == []
    assert len(computed) < 2 ** 8


def _joined(graph, mask, a, b):
    """Whether the cables lit in `mask` connect nodes a and b."""
    lit = [c for i, c in enumerate(graph.cables()) if mask >> i & 1]
    reach = {a}
    while True:
        more = {v for c in lit if reach & set(c) for v in c} - reach
        if not more:
            return b in reach
        reach |= more


def test_exact_search_skips_subsets_that_split_a_demand(monkeypatch):
    """A subset that leaves some demand's endpoints apart gives every
    pinning of that demand infinite propagation, so the search computes
    no distances for it; the full set is computed whatever it joins."""
    computed = []
    real = exact._subset_distances

    def recording(graph, mask, cables):
        computed.append(mask)
        return real(graph, mask, cables)

    monkeypatch.setattr(exact, "_subset_distances", recording)
    rng = random.Random(43)
    examined = 0
    for _ in range(120):
        graph, demands = tiny_instance(rng)
        computed.clear()
        solve_exact_small(build_model(graph, demands))
        full = (1 << len(graph.cables())) - 1
        assert computed[0] == full
        for mask in computed[1:]:
            for d in demands:
                assert _joined(graph, mask, d.src, d.dst), (mask, d)
            examined += 1
    assert examined > 50


def _pinned_inputs():
    """200 seeded tiny instances (50 with small PMs and tight budgets), a
    two-demand nobel-germany instance and a triangle without demands, as
    (graph, demands, solvable) triples."""
    rng = random.Random(20)
    instances = [tiny_instance(rng) for _ in range(150)]
    instances += [tiny_instance(rng, cores=rng.choice([4, 8]),
                                budgets=(21.0, 25.0, 30.0))
                  for _ in range(50)]
    inputs = [(graph, demands, True) for graph, demands in instances]
    graph = nobel_germany()
    _, services = default_catalogs()
    inputs.append((graph, generate_demands(graph, 2, services, 0), False))
    inputs.append((triangle_graph(), [], True))
    return inputs


def _pinned_models():
    """The models of _pinned_inputs, as (model, solvable) pairs."""
    return [(build_model(graph, demands), solvable)
            for graph, demands, solvable in _pinned_inputs()]


def test_lp_text_and_validation_messages_are_pinned():
    """sha1 over the LP text of every pinned model and over
    validate_solution's messages for an empty assignment, for each
    optimal solution, and for a copy of it with one value set to 0.5 and
    the objective 10 W off."""
    rng = random.Random(21)
    digest = hashlib.sha1()
    statuses = Counter()
    for model, solvable in _pinned_models():
        digest.update(export_lp(model).encode())
        checks = [({}, None)]
        if solvable:
            sol = solve_exact_small(model)
            statuses[sol.status] += 1
            if sol.status == "optimal":
                broken = dict(sol.assignment)
                broken[rng.choice(sorted(model.variables))] = 0.5
                checks += [(sol.assignment, sol.objective),
                           (broken, sol.objective + 10.0)]
        for assignment, objective in checks:
            lines = validate_solution(model, assignment, objective)
            digest.update(("%d\n" % len(lines)).encode())
            digest.update("".join(l + "\n" for l in lines).encode())
    assert statuses["optimal"] > 150 and statuses["infeasible"] > 0
    assert digest.hexdigest() == "d4a9f0da9b2da0d76b675ae744df3e72c61a26a8"


def test_model_rows_name_only_declared_variables():
    """validate_solution counts a missing name as zero, so a row naming
    an undeclared variable would silently lose that term."""
    for model, _ in _pinned_models():
        for con in model.constraints:
            assert set(con.coeffs) <= model.variables.keys(), con.name
        assert set(model.objective) <= model.variables.keys()
        assert _lp_row_names(export_lp(model)) <= model.variables.keys()


def _model_parts(model):
    """Everything build_model outputs, in order, as comparable text:
    variables with their domains, objective, rows and name tables."""
    return ([(name, repr((var.kind, var.ub)))
             for name, var in model.variables.items()],
            repr(list(model.objective.items())),
            [(con.name, repr(list(con.coeffs.items())), con.sense,
              repr(con.rhs)) for con in model.constraints],
            repr((model.X, model.Y, model.L, model.Z, model.U, model.W)))


def _reference_inputs():
    """The pinned models' inputs, 300 tiny draws, 30 tight instances and
    nobel-germany with 50 demands."""
    inputs = [(graph, demands) for graph, demands, _ in _pinned_inputs()]
    rng = random.Random(30)
    inputs += [tiny_instance(rng) for _ in range(300)]
    inputs += [_tight_instance(seed)[:2] for seed in range(30)]
    graph = nobel_germany()
    _, services = default_catalogs()
    inputs.append((graph, generate_demands(graph, 50, services, 0)))
    return inputs


def test_build_model_equals_the_reference():
    """build_model outputs what reference_build_model does: the same
    variable names and domains, objective, rows (names, coefficients with
    their types, senses, right-hand sides) and name tables, in order."""
    for graph, demands in _reference_inputs():
        got = _model_parts(build_model(graph, demands))
        want = _model_parts(reference_build_model(graph, demands))
        for part, g, w in zip(("variables", "objective", "rows", "tables"),
                              got, want):
            assert g == w, part
