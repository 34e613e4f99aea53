"""Registry-drift gates: the cross-registry invariants the lint rules and
the verifier rely on, checked directly so drift fails loudly in CI.

Three registries must stay mutually consistent as the repo grows:

* the backend registry — every stage keeps its reference and numpy tiers
  (the differential-oracle discipline);
* the fault-site registry — every site is exercised somewhere in the
  resilience suite, with only supported actions;
* the scheduler registry — ``SCHEDULERS`` exposes exactly the registered
  pass groups, and every one of them verifies.
"""

from pathlib import Path

import pytest

from repro.core.backends import STAGES, TIERS, registered_tiers
from repro.passes import PASS_GROUPS
from repro.resilience.faults import FAULT_SITES, FaultPlan
from repro.schedulers import SCHEDULERS

TESTS_ROOT = Path(__file__).resolve().parents[1]
#: suites that may discharge the "every fault site is exercised" duty —
#: resilience owns the generic chaos machinery; the store suite owns the
#: three persistent-store sites (store.*)
FAULT_SUITES = ("resilience", "store")


# ----------------------------------------------------------------------
# backend registry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_registers_reference_and_numpy(stage):
    tiers = registered_tiers(stage)
    assert "reference" in tiers, f"stage {stage!r} lost its loop oracle"
    assert "numpy" in tiers, f"stage {stage!r} lost its default fast path"
    assert set(tiers) <= set(TIERS)


def test_registered_tiers_rejects_unknown_stage():
    with pytest.raises(ValueError, match="unknown inspector stage"):
        registered_tiers("quantize")


# ----------------------------------------------------------------------
# fault-site registry
# ----------------------------------------------------------------------
def test_fault_sites_declare_known_actions():
    known = {"raise", "stall", "corrupt", "exit"}
    for site, actions in FAULT_SITES.items():
        assert actions, f"site {site!r} supports no actions"
        assert set(actions) <= known, (site, actions)


def test_chaos_default_sites_are_registered():
    plan = FaultPlan.chaos(0)
    for spec in plan.specs:
        assert spec.site in FAULT_SITES
        assert spec.action in FAULT_SITES[spec.site]


@pytest.mark.parametrize("site", sorted(FAULT_SITES))
def test_every_fault_site_is_exercised_by_a_fault_suite(site):
    """A registered site nobody injects is dead armor: adding a site to
    FAULT_SITES requires a chaos/fault test naming it (as a literal, the
    same discipline lint rule L001 enforces at the call sites)."""
    sources = "\n".join(
        p.read_text()
        for suite in FAULT_SUITES
        for p in sorted((TESTS_ROOT / suite).glob("test_*.py"))
    )
    assert f'"{site}"' in sources or f"'{site}'" in sources, (
        f"fault site {site!r} is registered but never exercised under "
        + " / ".join(f"tests/{s}" for s in FAULT_SUITES)
    )


def test_serving_stack_sites_are_registered():
    """The three store sites of the crash-consistency suite must stay
    registered: an unregistered literal at a ``fault_point`` call is
    exactly what lint rule L001 rejects, and an unregistered site in a
    ``FaultSpec`` would silently never fire."""
    expected = {
        "store.torn_write": {"raise", "corrupt"},
        "store.bit_flip": {"corrupt"},
        "store.stale_manifest": {"raise"},
    }
    for site, actions in expected.items():
        assert site in FAULT_SITES, f"store fault site {site!r} unregistered"
        assert set(FAULT_SITES[site]) == actions, (site, FAULT_SITES[site])


def test_statan_l001_catches_unregistered_store_site(tmp_path):
    """End-to-end check that L001 (the statan lint rule the runtime gate
    above mirrors) flags a ``fault_point`` naming an unregistered
    serving-stack site — the drift mode this PR makes newly possible."""
    from repro.statan import run_lint

    # L001 scopes itself to src/repro, so mirror that layout in the sandbox
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    bad = pkg / "bad_store_code.py"
    bad.write_text(
        "from repro.resilience.faults import fault_point\n\n\n"
        "def write(blob):\n"
        '    fault_point("store.torn_wrlte", payload=blob)\n'  # typo'd site
        "    return blob\n"
    )
    diags = run_lint(tmp_path, rule_ids=["L001"])
    assert any("store.torn_wrlte" in d.message for d in diags), [
        d.render() for d in diags
    ]
    # and the real, registered literal is clean
    bad.write_text(
        "from repro.resilience.faults import fault_point\n\n\n"
        "def write(blob):\n"
        '    fault_point("store.torn_write", payload=blob)\n'
        "    return blob\n"
    )
    assert run_lint(tmp_path, rule_ids=["L001"]) == []


def test_fault_point_call_sites_use_registered_sites():
    """The runtime half of L001, against the live tree."""
    import ast

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    seen = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "fault_point"
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                seen.add(node.args[0].value)
    assert seen <= set(FAULT_SITES), seen - set(FAULT_SITES)
    # the executor's per-stage hook is wired (the pass refactor kept it)
    assert "inspector.stage" in seen


# ----------------------------------------------------------------------
# scheduler registry
# ----------------------------------------------------------------------
def test_scheduler_and_pass_group_registries_agree():
    assert set(SCHEDULERS) == set(PASS_GROUPS)


def test_every_registered_group_passes_static_verification():
    from repro.statan import verify_registered_groups

    for name, diags in verify_registered_groups().items():
        errors = [d for d in diags if d.severity == "error"]
        assert errors == [], (name, [d.render() for d in errors])
