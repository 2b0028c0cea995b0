"""Smoke tests for the ``examples/`` scripts.

The examples are the documented entry points of the reproduction; this keeps
them runnable under the tier-1 profile.  Only the seconds-scale examples are
executed -- the others run multi-minute campaigns and are exercised
indirectly through the modules they call.
"""

import os
import runpy

import pytest

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples"
)


def test_quickstart_finds_the_bug(capsys):
    path = os.path.join(EXAMPLES_DIR, "quickstart.py")
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert "bug found" in output
    assert "design under verification" in output


def test_serve_quickstart_hits_the_cache(capsys):
    path = os.path.join(EXAMPLES_DIR, "serve_quickstart.py")
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert "verification service up" in output
    assert "bug detected by ['single_i']" in output
    assert "cache hit" in output
    assert "1 executed, 1 cache hits" in output


def test_distributed_proof_proves_five_frames(capsys, monkeypatch):
    monkeypatch.delenv("WORKERS", raising=False)
    path = os.path.join(EXAMPLES_DIR, "distributed_proof.py")
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert "no QED failure within bound 5" in output
    assert "frames proven safe        : 5" in output


def test_spec_bug_only_single_i_reports(capsys):
    # Fig. 8's spec-bug row: CRS and OCS-FV miss CMPI's carry deviation.
    path = os.path.join(EXAMPLES_DIR, "spec_bug_and_single_i.py")
    runpy.run_path(path, run_name="__main__")
    output = capsys.readouterr().out
    assert "mismatches: 0" in output
    assert "OCS-FV:  failing properties: none" in output
    assert "Single-I: CMPI property violated = True" in output
    assert "1-instruction counterexample" in output


def test_examples_importable_without_side_effects():
    """Importing (not running) an example must not start a campaign."""
    for name in (
        "quickstart.py",
        "control_flow_bug_hunt.py",
        "distributed_proof.py",
        "regression_campaign.py",
        "serve_quickstart.py",
        "spec_bug_and_single_i.py",
    ):
        path = os.path.join(EXAMPLES_DIR, name)
        if not os.path.exists(path):  # pragma: no cover - repo layout guard
            pytest.skip(f"{name} missing")
        runpy.run_path(path, run_name="example_import_smoke")
