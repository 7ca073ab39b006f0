"""Acceptance suite: the ten battery criteria at full scale.

Each test runs its entry of `lab.CRITERIA` at its full-scale count, prints
one pass/fail line (run pytest -s to see them inline) and fails on any
counterexample; stated wall-clock budgets are asserted too.
"""

from paritykit.lab import CRITERIA, GenParams

PARAMS = GenParams(seed=20240 + 817, edge_density=0.5, priority_cap=4)


def check(number, budget=None):
    criterion = CRITERIA[number - 1]
    result = criterion.check(PARAMS, criterion.count)
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
    check(1, budget=60)


def test_criterion_2_evenness_decomposition():
    check(2, budget=60)


def test_criterion_3_transduction_soundness():
    check(3, budget=600)


def test_criterion_4_bounded_pair_completeness():
    check(4)


def test_criterion_5_strahler_completeness():
    check(5)


def test_criterion_6_bounded_pair_low_strahler():
    check(6)


def test_criterion_7_universal_trees():
    check(7, budget=300)


def test_criterion_8_composition_correctness():
    check(8, budget=120)


def test_criterion_9_guided_bound():
    check(9)


def test_criterion_10_mutation_sensitivity():
    check(10)
