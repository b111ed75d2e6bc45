"""Structure constants of the local cascade operator.

The quadratic interaction between shell amplitudes is encoded by a sparse
tensor ``a[i1, i2, i3, mu1, mu2, mu3]`` where the species indices ``i`` run
over {1, 2, 3, 4} and the offset triple ``(mu1, mu2, mu3)`` is one of the
four elements of ``OFFSET_SET``.  Two algebraic constraints make the
resulting bilinear operator usable:

* symmetry       -- ``a[i1,i2,i3,m1,m2,m3] == a[i2,i1,i3,m2,m1,m3]``, so the
                    operator is symmetric in its two arguments;
* cancellation   -- for every multiset of (species, offset) pairs, the sum of
                    the coefficient over all six slot placements vanishes,
                    which forces the cubic energy flux to vanish identically.

Both constraints are checked by :func:`validate_tensor`, which reports every
violation instead of stopping at the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import N_SPECIES

#: admissible offset triples: no shift, or a single +1 shift in one slot
OFFSET_SET = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))

#: tolerance below which a cancellation-group sum counts as zero
CANCELLATION_TOL = 1e-12

TensorKey = tuple[int, int, int, int, int, int]


class TensorKeyError(ValueError):
    """A structurally malformed key (bad species index or offset triple)."""


def _check_key(key) -> TensorKey:
    key = tuple(int(v) for v in key)
    if len(key) != 6:
        raise TensorKeyError(f"key must have 6 entries, got {key!r}")
    i1, i2, i3, m1, m2, m3 = key
    if not all(1 <= i <= N_SPECIES for i in (i1, i2, i3)):
        raise TensorKeyError(f"species indices must lie in 1..4, got {key!r}")
    if (m1, m2, m3) not in OFFSET_SET:
        raise TensorKeyError(f"offset triple must lie in {OFFSET_SET}, got {key!r}")
    return key


def mirror_key(key: TensorKey) -> TensorKey:
    """Key with the two input slots (species and offset together) swapped."""
    i1, i2, i3, m1, m2, m3 = key
    return (i2, i1, i3, m2, m1, m3)


def group_signature(key: TensorKey) -> tuple:
    """Canonical label of the cancellation group containing ``key``.

    The group is the multiset of (species, offset) slot pairs; permuting the
    slots moves within the group but never leaves it.
    """
    i1, i2, i3, m1, m2, m3 = key
    return tuple(sorted(((i1, m1), (i2, m2), (i3, m3))))


def group_placements(signature: tuple) -> list[TensorKey]:
    """All keys obtained by placing the group's pairs into the three slots.

    Keys are repeated according to multiplicity: a group with a doubled pair
    yields six placements of which only three are distinct.
    """
    out = []
    for perm in itertools.permutations(signature):
        (i1, m1), (i2, m2), (i3, m3) = perm
        out.append((i1, i2, i3, m1, m2, m3))
    return out


@dataclass
class CoefficientTensor:
    """Sparse map from interaction keys to real coefficients."""

    entries: dict[TensorKey, float] = field(default_factory=dict)

    def __post_init__(self):
        checked = {}
        for key, value in self.entries.items():
            checked[_check_key(key)] = float(value)
        self.entries = checked

    def get(self, key: TensorKey) -> float:
        return self.entries.get(key, 0.0)

    def __len__(self) -> int:
        return len(self.entries)

    def as_rows(self) -> list[list]:
        """Entries as sorted ``[i1, i2, i3, mu1, mu2, mu3, value]`` rows."""
        return [[*key, self.entries[key]] for key in sorted(self.entries)]

    @classmethod
    def from_rows(cls, rows) -> "CoefficientTensor":
        entries = {}
        for row in rows:
            if len(row) != 7:
                raise TensorKeyError(f"tensor row must have 7 fields, got {row!r}")
            entries[_check_key(row[:6])] = float(row[6])
        return cls(entries)


@dataclass
class Violation:
    kind: str          # "symmetry" or "cancellation"
    where: tuple       # offending key, or group signature
    detail: str

    def __str__(self):
        return f"{self.kind} violation at {self.where}: {self.detail}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.valid:
            return "tensor valid (symmetry and cancellation constraints hold)"
        return "\n".join(str(v) for v in self.violations)


def validate_tensor(tensor: CoefficientTensor) -> ValidationReport:
    """Check symmetry pairs and cancellation groups; report every violation.

    Structural problems (a malformed key) raise :class:`TensorKeyError`;
    only genuine constraint violations end up in the report.  An empty
    tensor is vacuously valid.
    """
    report = ValidationReport()
    seen_pairs = set()
    for key, value in tensor.entries.items():
        mk = mirror_key(key)
        pair = tuple(sorted((key, mk)))
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        mirror_value = tensor.get(mk)
        if abs(value - mirror_value) > CANCELLATION_TOL:
            report.violations.append(Violation(
                "symmetry", key,
                f"value {value!r} but mirrored slot holds {mirror_value!r}"))

    seen_groups = set()
    for key in tensor.entries:
        sig = group_signature(key)
        if sig in seen_groups:
            continue
        seen_groups.add(sig)
        total = sum(tensor.get(k) for k in group_placements(sig))
        if abs(total) > CANCELLATION_TOL:
            report.violations.append(Violation(
                "cancellation", sig, f"placement sum {total!r} is nonzero"))
    return report


def dyadic_cascade_tensor() -> CoefficientTensor:
    """Single-species tensor realizing the classical dyadic shell cascade.

    On the species-1 slice the induced shell dynamics read

        dX_n/dt = lam^(5(n-1)/2) X_{n-1}^2 - lam^(5n/2) X_n X_{n+1}

    Shell n is fed quadratically by shell n-1 and drained by the pairing
    with shell n+1; the drain splits over the two mirrored slot placements,
    which is what makes the cancellation sum close.
    """
    return CoefficientTensor({
        (1, 1, 1, 0, 0, 1): 1.0,
        (1, 1, 1, 1, 0, 0): -0.5,
        (1, 1, 1, 0, 1, 0): -0.5,
    })


def random_valid_tensor(rng: np.random.Generator,
                        n_groups: int = 4) -> CoefficientTensor:
    """Draw a random tensor satisfying both constraints exactly.

    For each group a random multiset of (species, offset) pairs is drawn,
    the distinct placements are collected into mirror classes, each class
    gets a random value, and the last class is solved so the weighted
    placement sum vanishes.  Groups whose placements all coincide admit
    only the zero coefficient and are redrawn.
    """
    entries: dict[TensorKey, float] = {}
    made = 0
    while made < n_groups:
        pairs = []
        budget = 1  # at most one nonzero offset among the three slots
        for _ in range(3):
            species = int(rng.integers(1, 5))
            if budget and rng.random() < 0.5:
                pairs.append((species, 1))
                budget = 0
            else:
                pairs.append((species, 0))
        sig = tuple(sorted(pairs))
        placements = group_placements(sig)
        # mirror classes: orbit of each distinct key under the slot swap
        classes: dict[tuple, list[TensorKey]] = {}
        for key in placements:
            label = tuple(sorted((key, mirror_key(key))))
            classes.setdefault(label, []).append(key)
        class_list = list(classes.values())
        if len(class_list) < 2:
            continue  # forced to zero, not useful
        if any(sig == group_signature(k) for k in entries):
            continue
        values = [float(rng.normal()) for _ in class_list[:-1]]
        weight_last = len(class_list[-1])
        values.append(-sum(v * len(c) for v, c in zip(values, class_list))
                      / weight_last)
        for value, members in zip(values, class_list):
            for key in set(members):
                entries[key] = value
        made += 1
    tensor = CoefficientTensor(entries)
    report = validate_tensor(tensor)
    if not report.valid:  # construction guarantees this; keep the guard cheap
        raise AssertionError(f"random tensor construction failed: {report}")
    return tensor
