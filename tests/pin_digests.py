"""Recompute, on their own inputs, the digests that four pinned tests hold,
with the standard library and vnfplace alone, so that an interpreter
without pytest can run it:

    PYTHONPATH=src:tests python tests/pin_digests.py

Prints one "<test name> <sha1>" line per pin. test_interpreters.py runs
it under every other interpreter it finds and compares each line with the
value the named test asserts.
"""

import hashlib
import random

from helpers import _tight_instance, tiny_instance
from vnfplace.exact import build_model, solve_exact_small
from vnfplace.placement import bc_place_all, place_all
from vnfplace.topology import default_catalogs, nobel_germany
from vnfplace.workload import generate_demands

BETAS = [900.0, 700.0, 500.0, 300.0]
MODES = ("lbi", "hbi")


def place_all_digests():
    """test_place_all_fingerprint_is_pinned and
    test_place_all_decisions_are_pinned, from one run of each instance
    and mode: the first pin's runs are the decision pin's first three."""
    graph = nobel_germany()
    _, services = default_catalogs()
    instances = [(graph, generate_demands(graph, 100, services, seed), BETAS)
                 for seed in range(3)]
    instances.append((graph, generate_demands(graph, 300, services, 0), BETAS))
    instances += [_tight_instance(seed) for seed in range(30)]
    runs = [[place_all(g, demands, betas, mode=mode) for mode in MODES]
            for g, demands, betas in instances]
    snapshots = hashlib.sha1()
    for m in range(len(MODES)):
        for seed in range(3):
            snapshots.update(runs[seed][m].state.snapshot().encode())
    decisions = hashlib.sha1()
    for sols in runs:
        for sol in sols:
            for o in sol.outcomes:
                alloc = o.allocation
                assignments = route = ()
                if alloc is not None:
                    assignments = tuple((a.node, a.instance_id)
                                        for a in alloc.assignments)
                    route = tuple(tuple((l.src, l.dst) for l in seg)
                                  for seg in alloc.route.segments)
                decisions.update(repr((o.demand.id, o.accepted, o.reason,
                                       assignments, route)).encode())
    return snapshots.hexdigest(), decisions.hexdigest()


def bc_place_all_digest():
    """test_bc_place_all_fingerprint_is_pinned."""
    graph = nobel_germany()
    _, services = default_catalogs()
    digest = hashlib.sha1()
    for seed in range(3):
        demands = generate_demands(graph, 1000, services, seed)
        digest.update(bc_place_all(graph, demands).state.snapshot().encode())
    return digest.hexdigest()


def solve_exact_small_digest():
    """test_solve_exact_small_fingerprint_is_pinned."""
    rng = random.Random(18)
    instances = [tiny_instance(rng) for _ in range(200)]
    instances += [tiny_instance(rng, cores=rng.choice([4, 8]),
                                budgets=(21.0, 25.0, 30.0))
                  for _ in range(100)]
    digest = hashlib.sha1()
    for graph, demands in instances:
        sol = solve_exact_small(build_model(graph, demands))
        digest.update(("%s %r\n" % (sol.status, sol.objective)).encode())
        digest.update((sol.state.snapshot() if sol.state is not None
                       else "infeasible\n").encode())
    return digest.hexdigest()


def main():
    snapshots, decisions = place_all_digests()
    for name, digest in (
            ("test_place_all_fingerprint_is_pinned", snapshots),
            ("test_place_all_decisions_are_pinned", decisions),
            ("test_bc_place_all_fingerprint_is_pinned", bc_place_all_digest()),
            ("test_solve_exact_small_fingerprint_is_pinned",
             solve_exact_small_digest())):
        print(name, digest)


if __name__ == "__main__":
    main()
