"""Differential tests: ``preprocess`` against the reference preprocessor.

``preprocess_reference`` is the dict/set-based implementation the
literal-indexed rewrite replaced.  Preprocessing must return exactly what it
returns -- the same clauses in the same order, the same elimination stack,
the same ``unsat`` flag and the same statistics -- because the solver's
model, and with it every counterexample, depends on the exact clause list.
Inputs are seeded random formulas under every pass combination, and real
BMC slabs captured from the engine.
"""

import importlib
import itertools
import random
import tracemalloc
from dataclasses import dataclass, field
from typing import List
from unittest import mock

import pytest

from repro.bmc import engine
from repro.eval import campaign
from repro.qed.eddiv import QEDMode
from repro.qed.harness import SymbolicQED
from repro.sat.preprocess import PreprocessStats, preprocess


@dataclass
class _ReferenceResult:
    """The result type the reference was written against: it still
    returns the blocked-clause stack (always empty here, since no test
    enables its blocked-clause pass)."""

    clauses: List[List[int]]
    stats: PreprocessStats
    eliminated: list = field(default_factory=list)
    blocked: list = field(default_factory=list)
    unsat: bool = False


def _import_reference():
    """Import the verbatim reference against the names it imports.

    ``repro.sat.preprocess`` no longer has its blocked-clause and
    ``simplify_cnf`` result types; they are lent to the module for the
    import only, so the reference stays an unedited copy.
    """
    with mock.patch.multiple(
        "repro.sat.preprocess",
        create=True,
        BlockedRecord=tuple,
        SimplificationResult=object,
        PreprocessResult=_ReferenceResult,
    ):
        return importlib.import_module("preprocess_reference")


reference = _import_reference()

PASS_FLAGS = (
    "enable_subsumption",
    "enable_elimination",
    "enable_probing",
)
FLAG_COMBINATIONS = [
    dict(zip(PASS_FLAGS, values))
    for values in itertools.product((False, True), repeat=len(PASS_FLAGS))
]
SEEDS_PER_COMBINATION = 64


def _observable(result):
    """Everything ``preprocess`` returns except the wall time."""
    stats = dict(vars(result.stats))
    del stats["time_seconds"]
    return (
        result.clauses,
        result.eliminated,
        result.unsat,
        stats,
    )


def _expected(clauses, **options):
    expected = reference.preprocess(clauses, **options)
    assert expected.blocked == []
    return expected


def _assert_matches_reference(clauses, **options):
    expected = _expected([list(c) for c in clauses], **options)
    actual = preprocess([list(c) for c in clauses], **options)
    assert _observable(actual) == _observable(expected)


def _random_formula(rng):
    """A small CNF mixing gate definitions with noise.

    AND-gate definitions give elimination, subsumption and probing work;
    random clauses add duplicates, tautologies and units.  Variables are
    drawn from a sparse pool at a random offset, so slab-local renumbering
    is exercised alongside already-dense numbering.
    """
    count = rng.randint(4, 28)
    if rng.random() < 0.5:
        pool = list(range(1, count + 1))
    else:
        base = rng.choice((1, 40, 2_000_000))
        pool = sorted(rng.sample(range(base, base + 4 * count), count))
    clauses = []
    for _ in range(rng.randint(0, count)):
        out, a, b = rng.sample(pool, 3)
        a *= rng.choice((1, -1))
        b *= rng.choice((1, -1))
        clauses += [[-out, a], [-out, b], [out, -a, -b]]
    for _ in range(rng.randint(1, count + 2)):
        width = rng.choice((1, 2, 2, 2, 3, 3, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6))
        clauses.append(
            [rng.choice(pool) * rng.choice((1, -1)) for _ in range(width)]
        )
    if rng.random() < 0.02:
        clauses.append([])
    rng.shuffle(clauses)
    frozen = set(rng.sample(pool, rng.randint(0, count // 2)))
    cutoff = rng.choice((0, 0, rng.choice(pool)))
    return clauses, frozen, cutoff


@pytest.mark.parametrize(
    "flags",
    FLAG_COMBINATIONS,
    ids=[
        "-".join(name[len("enable_"):] for name, on in flags.items() if on)
        or "none"
        for flags in FLAG_COMBINATIONS
    ],
)
def test_random_formulas_match_reference(flags):
    for seed in range(SEEDS_PER_COMBINATION):
        rng = random.Random(f"{sorted(flags.items())}:{seed}")
        clauses, frozen, cutoff = _random_formula(rng)
        options = dict(
            flags,
            frozen=frozen,
            frozen_cutoff=cutoff,
            max_rounds=rng.randint(1, 4),
            bve_clause_limit=rng.randint(2, 8),
            bve_occurrence_limit=rng.randint(1, 12),
            probe_limit=rng.choice((3, 2000)),
            # Small budgets stop probing part-way, where visit order decides
            # which failed literals are found.
            probe_visit_budget=rng.choice((5, 40, 2_000_000)),
        )
        try:
            _assert_matches_reference(clauses, **options)
        except AssertionError as error:
            raise AssertionError(f"seed {seed}: {options}") from error


def test_iterable_of_tuples_input_matches_reference():
    rng = random.Random(5)
    clauses, frozen, cutoff = _random_formula(rng)
    expected = _expected(
        (tuple(c) for c in clauses), frozen=frozen, frozen_cutoff=cutoff
    )
    actual = preprocess(
        (tuple(c) for c in clauses), frozen=frozen, frozen_cutoff=cutoff
    )
    assert _observable(actual) == _observable(expected)


# ----------------------------------------------------------------------
# Slabs captured from the BMC engine
# ----------------------------------------------------------------------
def _capture_slabs(monkeypatch, run):
    """Every (slab, options) the engine preprocesses while *run* runs."""
    captured = []
    original = engine.preprocess

    def recording(clauses, **options):
        captured.append(([list(c) for c in clauses], options))
        return original(clauses, **options)

    monkeypatch.setattr(engine, "preprocess", recording)
    run()
    monkeypatch.undo()
    return captured


def _assert_slabs_match_reference(slabs):
    for clauses, options in slabs:
        _assert_matches_reference(clauses, **options)


def _detection_slabs(monkeypatch, bug_id):
    config = campaign.CampaignConfig(
        run_industrial_flow=False, run_directed_tests=False
    )
    return _capture_slabs(
        monkeypatch, lambda: campaign.detect_bug(bug_id, config)
    )


def test_single_i_slab_matches_reference(monkeypatch):
    # The pinned instruction under test constant-folds decode and the ALU
    # select, so this slab is a few hundred clauses.
    slabs = _detection_slabs(monkeypatch, "sra_zero_fill")
    assert slabs
    _assert_slabs_match_reference(slabs)


def test_eddiv_detection_slab_matches_reference(monkeypatch):
    # A whole EDDI-V detection window: tens of thousands of clauses.
    slabs = _detection_slabs(monkeypatch, "consecutive_sub")
    assert max(len(clauses) for clauses, _ in slabs) > 2000
    _assert_slabs_match_reference(slabs)


def test_dense_schedule_slabs_match_reference(monkeypatch):
    # Later bounds of a per-bound schedule preprocess slabs that reference
    # solver-known variables below the frozen cutoff: sparse numbering.
    harness = SymbolicQED(
        "B.v6",
        mode=QEDMode.EDDIV,
        focus_opcodes=("LDI", "MOV", "INC", "ADD", "STA", "LDA"),
    )
    slabs = _capture_slabs(
        monkeypatch,
        lambda: harness.check(max_bound=5, single_query=False),
    )
    assert any(
        any(0 < abs(lit) <= cutoff for clause in slab for lit in clause)
        for slab, cutoff in ((s, o["frozen_cutoff"]) for s, o in slabs)
    )
    _assert_slabs_match_reference(slabs)


def test_cost_follows_the_slab_not_the_variable_index():
    # A slab of a late bound: few clauses over very large variable indices.
    base = 2_000_000
    clauses = [
        [base + 1, -(base + 2)],
        [base + 2, base + 3],
        [-(base + 1), -(base + 3), base + 4],
        [base + 4, -(base + 2)],
    ]
    expected = _expected([list(c) for c in clauses], frozen_cutoff=base)
    tracemalloc.start()
    try:
        actual = preprocess([list(c) for c in clauses], frozen_cutoff=base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024
    assert _observable(actual) == _observable(expected)
