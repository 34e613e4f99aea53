"""Binary schedule codec: bit-identical round trips, hostile bytes.

The two properties everything downstream leans on:

* **fidelity** — ``decode(encode(s))`` reproduces the schedule exactly,
  and re-encoding yields the same bytes (canonical form), for every
  registered scheduler over the four seeded golden matrices and for
  hypothesis-generated synthetic schedules;
* **fail-closed** — corrupted bytes (any single-byte mutation, any
  truncation) raise :class:`CodecError`; the codec never hands back a
  plausible-but-wrong schedule.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.store import CODEC_VERSION, CodecError, decode_schedule, encode_schedule

from ..conftest import assert_same_arrays
from .conftest import MATRICES


def assert_same_schedule(a: Schedule, b: Schedule) -> None:
    assert a.n == b.n
    assert a.sync == b.sync
    assert a.algorithm == b.algorithm
    assert a.n_cores == b.n_cores
    assert a.fine_grained == b.fine_grained
    assert_same_arrays(a, b)


# ----------------------------------------------------------------------
# fidelity
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_all_schedulers_all_matrices_bit_identical(self, corpus):
        for (sname, mname), (schedule, _) in corpus.items():
            blob = encode_schedule(schedule)
            back = decode_schedule(blob)
            assert_same_schedule(schedule, back)
            assert encode_schedule(back) == blob, (sname, mname)

    def test_version_stamped(self, corpus):
        blob = encode_schedule(next(iter(corpus.values()))[0])
        assert blob[:4] == b"HDSC"
        assert int.from_bytes(blob[4:6], "little") == CODEC_VERSION

    def test_meta_survives(self, corpus):
        schedule, _ = corpus[("hdagg", "poisson2d")]
        assert schedule.meta  # hdagg records epsilon etc.
        back = decode_schedule(encode_schedule(schedule))
        for k, v in schedule.meta.items():
            if isinstance(v, (str, int, float, bool, type(None))):
                assert back.meta[k] == pytest.approx(v) if isinstance(v, float) else back.meta[k] == v


@st.composite
def synthetic_schedules(draw):
    n = draw(st.integers(1, 60))
    n_levels = draw(st.integers(1, 4))
    sync = draw(st.sampled_from(["barrier", "p2p"]))
    algorithm = draw(st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=12))
    levels = []
    for _ in range(n_levels):
        n_parts = draw(st.integers(1, 3))
        parts = []
        for _ in range(n_parts):
            size = draw(st.integers(1, 8))
            vertices = draw(
                st.lists(st.integers(0, n - 1), min_size=size, max_size=size)
            )
            parts.append((draw(st.integers(0, 7)), np.asarray(vertices)))
        levels.append(parts)
    meta = draw(
        st.dictionaries(
            st.text(max_size=8),
            st.one_of(st.integers(-10, 10), st.floats(-5, 5, allow_nan=False), st.booleans(), st.text(max_size=8)),
            max_size=4,
        )
    )
    return Schedule.from_partitions(
        n=n,
        levels=levels,
        sync=sync,
        algorithm=algorithm,
        n_cores=draw(st.integers(1, 16)),
        fine_grained=draw(st.booleans()),
        meta=meta,
    )


@given(synthetic_schedules())
@settings(max_examples=60, deadline=None)
def test_synthetic_round_trip(schedule):
    blob = encode_schedule(schedule)
    back = decode_schedule(blob)
    assert_same_schedule(schedule, back)
    assert encode_schedule(back) == blob


# ----------------------------------------------------------------------
# fail-closed under hostile bytes
# ----------------------------------------------------------------------
class TestCorruption:
    @pytest.fixture(scope="class")
    def blob(self, corpus):
        return encode_schedule(corpus[("hdagg", "banded")][0])

    def test_every_single_byte_flip_rejected(self, blob):
        """Exhaustive over offsets: no single corrupted byte decodes."""
        for off in range(len(blob)):
            mutated = bytearray(blob)
            mutated[off] ^= 0xFF
            with pytest.raises(CodecError):
                decode_schedule(bytes(mutated))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_fuzzed_bit_flips_rejected(self, corpus, data):
        name = data.draw(st.sampled_from(sorted(MATRICES)))
        blob = encode_schedule(corpus[("hdagg", name)][0])
        off = data.draw(st.integers(0, len(blob) - 1))
        bit = data.draw(st.integers(0, 7))
        mutated = bytearray(blob)
        mutated[off] ^= 1 << bit
        with pytest.raises(CodecError):
            decode_schedule(bytes(mutated))

    def test_every_truncation_rejected(self, blob):
        for end in range(len(blob)):
            with pytest.raises(CodecError):
                decode_schedule(blob[:end])

    def test_trailing_garbage_rejected(self, blob):
        with pytest.raises(CodecError):
            decode_schedule(blob + b"\x00")

    def test_crc_fixup_cannot_smuggle_bad_semantics(self, blob, corpus):
        """Even an attacker who recomputes the CRC cannot make the decoder
        emit out-of-range vertices: semantic checks run after the CRC."""
        schedule = corpus[("hdagg", "banded")][0]
        body = bytearray(blob[:-4])
        # n lives at offset 8 (u64); shrink it below a used vertex id
        body[8:16] = (1).to_bytes(8, "little")
        fixed = bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little")
        with pytest.raises(CodecError):
            decode_schedule(fixed)
        assert schedule.n > 1  # the mutation above was meaningful

    def test_crc_fixup_cannot_smuggle_empty_partition(self):
        """A CRC-correct record holding a zero-size partition is refused."""
        one = Schedule.from_partitions(1, [[(0, [0])]], sync="barrier", algorithm="t", n_cores=1)
        body = encode_schedule(one)[:-4]
        # the body ends with the lone partition: core i32, size u32, vertex u32;
        # keep the core, set the size to 0 and drop the vertex
        body = body[:-8] + (0).to_bytes(4, "little")
        fixed = body + zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(CodecError, match="empty"):
            decode_schedule(fixed)

    def test_wrong_magic_rejected(self, blob):
        with pytest.raises(CodecError):
            decode_schedule(b"NOPE" + blob[4:])

    def test_unknown_version_rejected(self, blob):
        body = bytearray(blob[:-4])
        body[4:6] = (CODEC_VERSION + 1).to_bytes(2, "little")
        fixed = bytes(body) + zlib.crc32(bytes(body)).to_bytes(4, "little")
        with pytest.raises(CodecError, match="version"):
            decode_schedule(fixed)

    def test_empty_and_tiny_inputs_rejected(self):
        for junk in (b"", b"H", b"HDSC", b"\x00" * 16):
            with pytest.raises(CodecError):
                decode_schedule(junk)
