"""One netlist per design version: built once, walked once, linted once.

``build_core`` shares one netlist per configuration and process, and the
netlist keeps its own lint walks, so a warm job elaborates nothing and a
Single-I catalogue walks its core once, however many properties it checks.
The engine's fail-fast ``check_design`` then walks only the property; it
must raise exactly what a lint of a freshly built netlist raises.
"""

import pytest

from repro.analysis import netlist_lint
from repro.analysis.findings import DesignLintError
from repro.analysis.netlist_lint import (
    check_design,
    clear_version_lint_memo,
    lint_design,
)
from repro.eval.campaign import detect_bug
from repro.indverif import OCSFVChecker
from repro.isa.arch import TINY_PROFILE
from repro.qed import SingleIChecker
from repro.uarch import core
from repro.uarch.versions import ALL_VERSIONS

CHECKERS = {
    "single_i": lambda version: SingleIChecker(version, arch=TINY_PROFILE),
    "ocsfv": lambda version: OCSFVChecker(version, arch=TINY_PROFILE)._checker,
}
VERSIONS = [version.name for version in ALL_VERSIONS]


def _raised(design, prop):
    """The error findings ``check_design`` raises, or None."""
    try:
        check_design(design, prop=prop)
    except DesignLintError as exc:
        return [finding.to_json_dict() for finding in exc.report.errors]
    return None


def _assert_lint_matches_cold(version, settings):
    checker = CHECKERS[settings](version)
    shared = checker.design
    lint_design(shared)  # the shared netlist's walks are now warm
    for instr in checker.instructions:
        prop = checker.property_for(instr).expr
        warm = _raised(shared, prop)
        clear_version_lint_memo()
        cold = core.build_core(checker.config)
        assert cold is not shared
        assert warm == _raised(cold, prop), instr.name
        assert (
            lint_design(shared, prop=prop).to_json_dict()
            == lint_design(cold, prop=prop).to_json_dict()
        ), instr.name


@pytest.mark.parametrize("settings", sorted(CHECKERS))
def test_lint_differential(settings):
    _assert_lint_matches_cold("A.v6", settings)


@pytest.mark.slow
@pytest.mark.parametrize("settings", sorted(CHECKERS))
@pytest.mark.parametrize("version", VERSIONS)
def test_lint_differential_all_versions(version, settings):
    _assert_lint_matches_cold(version, settings)


def test_warm_detect_bug_elaborates_no_netlist(monkeypatch):
    # The full configuration runs Single-I, CRS, OCS-FV and every directed
    # test, each of which reads the version's netlist.
    detect_bug("sra_zero_fill")
    elaborations = []
    elaborate = core.elaborate

    def counting(*args, **kwargs):
        elaborations.append(args)
        return elaborate(*args, **kwargs)

    monkeypatch.setattr(core, "elaborate", counting)
    detect_bug("sra_zero_fill")
    assert elaborations == []


def test_single_i_catalogue_walks_its_core_once(monkeypatch):
    walks = []
    find_cycle = netlist_lint._find_cycle

    def counting(roots):
        roots = list(roots)
        if any(name.startswith("next(") for name, _ in roots):
            walks.append(roots)
        return find_cycle(roots)

    monkeypatch.setattr(netlist_lint, "_find_cycle", counting)
    clear_version_lint_memo()
    checker = SingleIChecker("A.v6")
    results = checker.check_all()
    assert len(results) == len(checker.instructions) > 1
    assert len(walks) == 1
