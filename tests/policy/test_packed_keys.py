"""Packed-int priority keys must order exactly like the tuple oracle.

The bank and channel schedulers compare packed keys with one int
compare; each policy's ordering tuple (``request_key``) is the
specification.  The packed key is faithful only if, for every
registered policy and every pair of requests, the packed ordering
equals the tuple ordering — including ties, which must pack to equal
ints so downstream tie-break behaviour cannot diverge.  This property
is exercised over seeded random key-field values plus the boundary
values at each declared field width.
"""

import random
import zlib

import pytest

from repro.controller.request import MemoryRequest, RequestKind
from repro.dram.timing import DDR2Timing
from repro.policy import PolicyContext, registered_names, resolve
from repro.policy.packing import (
    KeyField,
    float_sort_bits,
    pack_tuple,
    total_bits,
)

NUM_THREADS = 4
SAMPLES = 150


def _make_policy(name):
    ctx = PolicyContext(num_threads=NUM_THREADS, timing=DDR2Timing())
    return resolve(name)(ctx)


def _boundary_uints(bits):
    values = {0, 1, (1 << bits) - 1, (1 << bits) - 2, 1 << (bits - 1)}
    return sorted(v for v in values if 0 <= v < (1 << bits))


#: Float field values: boundaries of the monotone-bits mapping plus a
#: spread of magnitudes.  -0.0 is deliberately excluded — the packed
#: mapping distinguishes it from +0.0 while tuple comparison does not
#: (documented caveat in repro.policy.packing); no simulator value is
#: ever -0.0.
FLOAT_POOL = [
    0.0,
    5e-324,          # smallest subnormal
    1e-12,
    1.0,
    1.5,
    2.0,
    1e6,
    1e12,
    1.7976931348623157e308,
    float("inf"),
    -1.0,
    -2.5,
    -1e12,
    float("-inf"),
]


def _sample_value(rng, field):
    if field.kind == "float":
        if rng.random() < 0.5:
            return rng.choice(FLOAT_POOL)
        return rng.uniform(-1e9, 1e9)
    bounds = _boundary_uints(field.bits)
    if rng.random() < 0.3:
        return rng.choice(bounds)
    # Small pools force ties on the leading fields so the tie-break
    # ordering of the trailing fields is actually exercised.
    if rng.random() < 0.3:
        return rng.randrange(4)
    return rng.randrange(1 << field.bits)


def _request_with(policy, rng, arrival, seq, thread):
    request = MemoryRequest(
        thread_id=thread,
        kind=RequestKind.READ,
        address=0,
        arrival_time=arrival,
        seq=seq,
    )
    request.virtual_start_time = _sample_value(
        rng, KeyField("vst", 64, "float")
    )
    request.virtual_finish_time = _sample_value(
        rng, KeyField("vft", 64, "float")
    )
    return request


@pytest.mark.parametrize("name", registered_names())
def test_packed_ordering_matches_tuple_ordering(name):
    policy = _make_policy(name)
    specs = policy.key_field_specs()
    assert specs is not None, f"{name} has not declared a packed key layout"
    width = total_bits(specs)
    rng = random.Random(0xC0FFEE ^ zlib.crc32(name.encode()))

    # Arrival/seq fields are shared by every policy's tail; sample them
    # with boundary coverage at their declared widths.
    arrival_field = next(f for f in specs if f.name == "arrival_time")
    seq_field = next(f for f in specs if f.name == "seq")

    samples = []
    for _ in range(SAMPLES):
        thread = rng.randrange(NUM_THREADS)
        request = _request_with(
            policy,
            rng,
            arrival=int(_sample_value(rng, arrival_field)),
            seq=int(_sample_value(rng, seq_field)),
            thread=thread,
        )
        # Stateful policies key off mutable per-thread state; randomize
        # it between samples so prefixes vary (and ties still occur).
        if hasattr(policy, "blacklisted"):
            policy.blacklisted[thread] = rng.random() < 0.5
            policy._last_served[thread] = rng.choice(
                _boundary_uints(44) + [rng.randrange(1 << 20)]
            )
        if hasattr(policy, "estimator") and rng.random() < 0.5:
            policy.estimator.observe(thread, rng.randrange(1, 10_000))
            policy.on_cycle(policy._next_epoch)
        tuple_key = policy.request_key(request)
        packed = policy.packed_key(request)
        assert isinstance(packed, int)
        assert 0 <= packed < (1 << width), (
            f"{name}: packed key {packed:#x} exceeds declared "
            f"{width}-bit layout"
        )
        samples.append((tuple_key, packed))

    for i, (tuple_a, packed_a) in enumerate(samples):
        for tuple_b, packed_b in samples[i + 1:]:
            if tuple_a < tuple_b:
                assert packed_a < packed_b, (
                    f"{name}: {tuple_a} < {tuple_b} but packed "
                    f"{packed_a:#x} >= {packed_b:#x}"
                )
            elif tuple_a > tuple_b:
                assert packed_a > packed_b
            else:
                assert packed_a == packed_b


@pytest.mark.parametrize("name", registered_names())
def test_packed_key_matches_generic_packer(name):
    """Hand-shifted packed_key implementations equal the checked packer."""
    policy = _make_policy(name)
    specs = policy.key_field_specs()
    rng = random.Random(0xBEEF ^ zlib.crc32(name.encode()))
    arrival_field = next(f for f in specs if f.name == "arrival_time")
    seq_field = next(f for f in specs if f.name == "seq")
    for _ in range(SAMPLES):
        thread = rng.randrange(NUM_THREADS)
        request = _request_with(
            policy,
            rng,
            arrival=int(_sample_value(rng, arrival_field)),
            seq=int(_sample_value(rng, seq_field)),
            thread=thread,
        )
        if hasattr(policy, "blacklisted"):
            policy.blacklisted[thread] = rng.random() < 0.5
            policy._last_served[thread] = rng.randrange(1 << 30)
        expected = pack_tuple(specs, policy.request_key(request))
        assert policy.packed_key(request) == expected


class TestFloatSortBits:
    """The float → sort-bits mapping must be strictly monotone."""

    def test_ordering_over_boundary_floats(self):
        ordered = sorted(set(FLOAT_POOL))
        bits = [float_sort_bits(v) for v in ordered]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)

    def test_random_pairs(self):
        rng = random.Random(7)
        for _ in range(2000):
            a = rng.uniform(-1e15, 1e15)
            b = rng.uniform(-1e15, 1e15)
            assert (a < b) == (float_sort_bits(a) < float_sort_bits(b))

    def test_fits_64_bits(self):
        for value in FLOAT_POOL:
            assert 0 <= float_sort_bits(value) < (1 << 64)


class TestPackTuple:
    def test_uint_overflow_raises(self):
        specs = (KeyField("a", 4), KeyField("b", 4))
        with pytest.raises(ValueError):
            pack_tuple(specs, (16, 0))

    def test_negative_uint_raises(self):
        specs = (KeyField("a", 4),)
        with pytest.raises(ValueError):
            pack_tuple(specs, (-1,))

    def test_length_mismatch_raises(self):
        specs = (KeyField("a", 4), KeyField("b", 4))
        with pytest.raises(ValueError):
            pack_tuple(specs, (1,))

    def test_boundary_values_round_trip_ordering(self):
        specs = (KeyField("hi", 3), KeyField("lo", 5))
        values = [
            (hi, lo)
            for hi in _boundary_uints(3)
            for lo in _boundary_uints(5)
        ]
        packed = [pack_tuple(specs, v) for v in values]
        assert sorted(range(len(values)), key=lambda i: values[i]) == sorted(
            range(len(values)), key=lambda i: packed[i]
        )
