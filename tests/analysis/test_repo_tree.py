"""The linter against this repository itself.

Two guarantees: the committed tree is clean, and the guarantee is not
vacuous — deleting a parity test makes REP004 fire (the acceptance check
that the rule actually guards the ``backend=`` seam of
``evaluate_robust_error``).
"""

import os

from repro.analysis.config import default_config
from repro.analysis.engine import run_analysis

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_repository_tree_is_clean():
    report = run_analysis(default_config(REPO_ROOT))
    assert report.ok, "\n" + report.render_text()
    # The repository demonstrates the waiver mechanism on real code
    # (JobQueue.claim's intentional shuffle).
    assert report.waived >= 1


def test_rep004_fires_when_the_backend_parity_test_is_deleted():
    """Dropping tests/biterror from the scan simulates deleting the parity
    test for `make_profiled_chips`: its backend= seam must surface as REP004."""
    tests_dir = os.path.join(REPO_ROOT, "tests")
    kept = sorted(
        os.path.join("tests", entry)
        for entry in os.listdir(tests_dir)
        if entry != "biterror" and os.path.isdir(os.path.join(tests_dir, entry))
    )
    config = default_config(REPO_ROOT, test_paths=kept)
    report = run_analysis(config, use_baseline=False)
    rep004 = [f for f in report.new_findings if f.rule_id == "REP004"]
    assert any(
        "make_profiled_chips(backend=...)" in finding.message for finding in rep004
    ), "\n" + report.render_text()


def test_every_registered_rule_has_an_id_and_title():
    from repro.analysis.rules import ALL_RULES, rule_registry

    assert len(ALL_RULES) == 8
    registry = rule_registry()
    assert sorted(registry) == [
        "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
        "REP008",
    ]
    for rule in ALL_RULES:
        assert rule.title
