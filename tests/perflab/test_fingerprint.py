"""Environment fingerprints: digest semantics and collection."""

import dataclasses

from repro.perflab.fingerprint import (
    PERF_SCHEMA_VERSION,
    EnvironmentFingerprint,
    collect_fingerprint,
)


def make_fp(**overrides):
    base = dict(
        cpu_model="TestCPU", cpu_count=8, governor="performance",
        os="Linux-test", python="3.11.0", numpy="2.0.0", scipy="1.12.0",
        blas="openblas 0.3",
    )
    base.update(overrides)
    return EnvironmentFingerprint(**base)


def test_schema_version_is_two():
    assert PERF_SCHEMA_VERSION == 2


def test_digest_keys_only_the_environment():
    a = make_fp()
    # provenance must NOT change the digest: a new commit or an armed
    # fault plan continues the same longitudinal series
    b = make_fp()
    b = dataclasses.replace(b, git_sha="abc123", faults_armed=True,
                            observability_enabled=True,
                            extra={"note": "x"})
    assert a.digest == b.digest
    # but any environment-key field splits the series
    assert make_fp(numpy="2.1.0").digest != a.digest
    assert make_fp(cpu_count=16).digest != a.digest
    assert make_fp(governor="powersave").digest != a.digest


def test_backend_field_splits_the_series():
    a = make_fp()
    # a non-empty backend is part of the environment key: compiled-tier
    # and numpy-tier timings must never share a longitudinal series
    assert make_fp(backend="compiled").digest != a.digest
    assert make_fp(backend="compiled").digest != make_fp(backend="numpy").digest
    # ...but the explicit default tier still differs from "unstated"
    assert make_fp(backend="numpy").digest != a.digest
    assert "backend compiled" in make_fp(backend="compiled").describe()


def test_empty_backend_keeps_pre_backend_digests():
    # histories and blessed baselines written before the backend field
    # existed hash only the original key fields; an empty backend must
    # reproduce that digest exactly so they stay comparable
    fp = make_fp()
    legacy = tuple(getattr(fp, f) for f in fp._KEY_FIELDS)
    import hashlib

    assert fp.digest == hashlib.sha256(repr(legacy).encode()).hexdigest()[:12]


def test_collect_stamps_backend():
    assert collect_fingerprint().backend == ""
    fp = collect_fingerprint(backend="compiled")
    assert fp.backend == "compiled"
    assert EnvironmentFingerprint.from_dict(fp.as_dict()) == fp


def test_roundtrip_preserves_digest():
    fp = make_fp(git_sha="deadbee", extra={"k": "v"})
    blob = fp.as_dict()
    assert blob["digest"] == fp.digest
    again = EnvironmentFingerprint.from_dict(blob)
    assert again == fp
    assert again.digest == fp.digest


def test_collect_runs_and_describes(monkeypatch):
    fp = collect_fingerprint(run="unit-test")
    assert fp.python
    assert fp.numpy
    assert fp.cpu_count >= 1
    assert fp.extra == {"run": "unit-test"}
    text = fp.describe()
    assert fp.digest in text
    assert fp.python in text


def test_collect_sees_armed_faults():
    from repro.resilience.faults import FaultPlan, FaultSpec, armed

    assert collect_fingerprint().faults_armed is False
    plan = FaultPlan([FaultSpec("inspector.stage", "stall", duration=0.0)])
    with armed(plan):
        inside = collect_fingerprint()
    assert inside.faults_armed is True
    # provenance only: same digest with or without the armed plan
    assert inside.digest == collect_fingerprint().digest
