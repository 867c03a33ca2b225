"""Acceptance gate: every shipped guarantee, at its stated tolerance.

The suite runs once per session at the pinned seed (7, the seed the
command-line `verify` examples use) and each criterion becomes one test with
one printed pass/fail line.  A check that fails in the single analytically
unavoidable way documented in the project notes surfaces as an expected
failure (xfail), never as a silent pass; any other failure is a hard red.
"""

import pytest

from fracmean import verify

SEED = 7

_NAMES = {cid: name for cid, name, _fn in verify.CRITERIA}
_NAMES[14] = "determinism of the full suite"


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    results, _passed = verify.run_suite(seed=SEED, include_determinism=True)
    lines = verify.format_lines(results)
    report = "\n".join([f"acceptance suite, seed {SEED}:"] + lines) + "\n"
    print("\n" + report, end="")
    (tmp_path_factory.mktemp("acceptance") / "acceptance_report.txt").write_text(report)
    return {r.cid: r for r in results}


@pytest.mark.parametrize(
    "cid", sorted(_NAMES), ids=[f"criterion_{cid:02d}" for cid in sorted(_NAMES)]
)
def test_criterion(suite, cid):
    result = suite[cid]
    print(f"[{result.status():5s}] criterion {cid:2d}: {result.name}")
    hard = [c for c in result.checks if c.hard_failure]
    detail = "; ".join(f"{c.name}: {c.detail}" for c in hard)
    assert result.passed, f"criterion {cid} failed: {detail}"
    if result.expected_failures:
        reasons = "; ".join(c.xfail_reason for c in result.expected_failures)
        pytest.xfail(f"documented defect: {reasons}")


def test_distinguisher_trials_draw_from_distinct_seeds(monkeypatch):
    # each same-law trial of criterion 11 must be independent of the others
    import fracmean.characterize as characterize
    from fracmean.moments import MomentEstimate, Route

    real = characterize.frac_moment
    seeds = []

    def recording(model, alpha, lam, route=Route.AUTO, cfg=None, mc=None):
        if route is not Route.MONTE_CARLO:
            return real(model, alpha, lam, route, cfg, mc)
        seeds.append(mc.seed)
        return MomentEstimate(0j, 1.0, Route.MONTE_CARLO)

    monkeypatch.setattr(characterize, "frac_moment", recording)
    verify._distinguisher(SEED)
    assert len(seeds) == 200
    assert len(set(seeds)) == 200


@pytest.mark.parametrize("ids", [{99}, {4, 99}, {14}, set()], ids=["unknown", "one-unknown", "only-14", "empty"])
def test_run_suite_rejects_selections_without_a_known_criterion(ids):
    # 14 repeats the selected criteria, so alone it would check an empty suite
    with pytest.raises(ValueError):
        verify.run_suite(seed=SEED, ids=ids)
