"""Packed-integer priority keys: one int compare per candidate.

The scheduler hot path used to build a Python tuple per request per
scheduling pass and compare them lexicographically.  BLISS's hardware
argument (cheap integer compares beat complex ranking logic) applies
to the simulator itself: a policy that declares its key layout —
ordered fields with explicit bit widths — gets its entire ordering
tuple packed into **one int**, so candidate selection is a single
C-level integer comparison with no per-candidate allocation.

The contract mirrors the tuple it replaces:

* Fields pack most-significant-first in :meth:`~repro.policy.base.
  SchedulingPolicy.key_field_specs` order, so integer comparison of
  packed keys equals lexicographic comparison of the tuples.
* ``uint`` fields must lie in ``[0, 2**bits)``; the packed ordering is
  undefined outside the declared width (the generic packer checks,
  the hand-inlined per-policy packers trust the contract).
* ``float`` fields occupy 64 bits through :func:`float_sort_bits`, a
  total-order-preserving image of IEEE-754 doubles (the one caveat:
  ``-0.0`` and ``+0.0`` map to distinct images although they compare
  equal as floats — no simulator quantity ever produces ``-0.0``).

Every scheduling policy declares a layout; the packed int is the only
encoding the bank and channel schedulers compare.  The ordering tuple
(:meth:`~repro.policy.base.SchedulingPolicy.request_key`) is the
specification the packed keys must agree with: the property tests in
``tests/policy`` check packed-vs-tuple ordering for every registered
policy, and the bank-selection reference test in ``tests/controller``
checks that the schedulers' picks equal a plain tuple min.
"""

from __future__ import annotations

from struct import Struct
from typing import NamedTuple, Tuple

#: Bits for monotonically-growing cycle-valued fields (arrival times,
#: service counters): 2**44 cycles ≈ 1.7e13, far past any run length.
TIME_BITS = 44
#: Bits for the global request sequence tie-breaker.
SEQ_BITS = 40
#: Bits a float field occupies (the full IEEE-754 double image).
FLOAT_BITS = 64

_F64 = Struct(">d")
_SIGN = 1 << 63
_MASK64 = (1 << 64) - 1


class KeyField(NamedTuple):
    """One component of a packed priority key.

    Attributes:
        name: Label (matches ``key_field_names()`` order).
        bits: Width in bits; ``FLOAT_BITS`` for floats.
        kind: ``"uint"`` (non-negative int within ``bits``) or
            ``"float"`` (any double, packed via :func:`float_sort_bits`).
    """

    name: str
    bits: int
    kind: str = "uint"


def float_sort_bits(value: float) -> int:
    """Order-preserving 64-bit unsigned image of a double.

    ``a < b  ⟺  float_sort_bits(a) < float_sort_bits(b)`` for every
    pair of non-NaN doubles (including infinities).  Non-negative
    values get the sign bit set; negative values are bit-complemented,
    the classic total-order trick for IEEE-754.
    """
    bits = int.from_bytes(_F64.pack(value), "big")
    if bits & _SIGN:
        return _MASK64 - bits
    return bits | _SIGN


def total_bits(specs: Tuple[KeyField, ...]) -> int:
    """Total packed width of a key layout."""
    return sum(field.bits for field in specs)


def pack_tuple(specs: Tuple[KeyField, ...], values: Tuple) -> int:
    """Generic packer: fold an ordering tuple into one int per ``specs``.

    This is the reference implementation the per-policy fast packers
    must agree with (property-tested in ``tests/policy``), and the
    default :meth:`~repro.policy.base.SchedulingPolicy.packed_key` for
    policies that declare a layout but don't hand-inline the packing.
    Unlike the fast packers it validates every ``uint`` field against
    its declared width, so a field overflowing its budget fails loudly
    instead of silently corrupting the ordering.
    """
    if len(values) != len(specs):
        raise ValueError(
            f"key tuple has {len(values)} fields, layout declares {len(specs)}"
        )
    packed = 0
    for field, value in zip(specs, values):
        if field.kind == "float":
            component = float_sort_bits(value)
        else:
            component = value
            if not 0 <= component < (1 << field.bits):
                raise ValueError(
                    f"key field {field.name!r} = {value!r} outside its "
                    f"declared {field.bits}-bit width"
                )
        packed = (packed << field.bits) | component
    return packed
