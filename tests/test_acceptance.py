"""Acceptance suite: the ten battery criteria at full scale.

Each test prints one pass/fail line (run pytest -s to see them inline) and
fails on any counterexample; stated wall-clock budgets are asserted too.
"""

from paritykit.lab import (
    GenParams,
    check_bounded_pair_completeness,
    check_bounded_pair_low_strahler,
    check_composition_correctness,
    check_evenness_decomposition,
    check_guided_bound,
    check_mutation_sensitivity,
    check_solver_cross_oracle,
    check_strahler_completeness,
    check_transduction_soundness,
    check_universal_trees,
)

PARAMS = GenParams(seed=20240 + 817, edge_density=0.5, priority_cap=4)


def report(number, result, budget=None):
    status = "PASS" if result.ok else f"FAIL ({len(result.failures)} failures)"
    line = (
        f"criterion {number:>2} {result.name:<28} {result.instances:>6} instances"
        f"  {result.seconds:8.2f}s  {status}"
    )
    print(line)
    for desc, manifest in result.failures[:5]:
        print(f"  counterexample: {desc}")
        if manifest:
            print(f"  {manifest[:400]}")
    assert result.ok, f"criterion {number}: {result.failures[:3]}"
    if budget is not None:
        assert result.seconds <= budget, (
            f"criterion {number} took {result.seconds:.1f}s > {budget}s"
        )


def test_criterion_1_solver_cross_oracle():
    result = check_solver_cross_oracle(PARAMS, count=500, vertices=6, priority_cap=4)
    report(1, result, budget=60)


def test_criterion_2_evenness_decomposition():
    result = check_evenness_decomposition(PARAMS, count=300, vertices=10)
    report(2, result, budget=60)


def test_criterion_3_transduction_soundness():
    result = check_transduction_soundness(
        PARAMS, count=200, vertices=5, cap=200_000
    )
    report(3, result, budget=600)


def test_criterion_4_bounded_pair_completeness():
    result = check_bounded_pair_completeness(PARAMS, count=150, vertices=5)
    report(4, result)


def test_criterion_5_strahler_completeness():
    result = check_strahler_completeness(PARAMS, count=150, vertices=6)
    report(5, result)


def test_criterion_6_bounded_pair_low_strahler():
    result = check_bounded_pair_low_strahler(PARAMS, count=100, vertices=5)
    report(6, result)


def test_criterion_7_universal_trees():
    result = check_universal_trees(PARAMS, embed_nodes=7, host_nodes=9)
    report(7, result, budget=300)


def test_criterion_8_composition_correctness():
    result = check_composition_correctness(PARAMS, count=50, tree_nodes=2)
    report(8, result, budget=120)


def test_criterion_9_guided_bound():
    result = check_guided_bound(PARAMS)
    report(9, result)


def test_criterion_10_mutation_sensitivity():
    result = check_mutation_sensitivity(PARAMS, count=25, vertices=5)
    report(10, result)
