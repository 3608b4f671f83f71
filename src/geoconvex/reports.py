"""Check configuration and result types shared by all predicate checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral, Real

from .manifold import Point


class Verdict(Enum):
    HOLDS_ON_SAMPLES = "HoldsOnSamples"
    VIOLATED = "Violated"
    PREMISE_FAILED = "PremiseFailed"
    DOMAIN_ERROR = "DomainError"


@dataclass(frozen=True)
class CheckConfig:
    seed: int = 0
    samples: int = 100_000
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    refine_steps: int = 50
    t_grid: int = 17
    workers: int = 1

    def __post_init__(self):
        # each message starts with the field it names
        for name, least in (("seed", None), ("samples", 1), ("refine_steps", 0),
                            ("t_grid", 3), ("workers", 1)):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Integral) or (
                    least is not None and v < least):
                bound = "" if least is None else f" >= {least}"
                raise ValueError(f"{name}: must be an integer{bound}, not {v!r}")
        for name in ("tol_abs", "tol_rel"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, Real) or not 0 < v < math.inf:
                raise ValueError(f"{name}: must be a finite number > 0, not {v!r}")

    def threshold(self, rhs: float) -> float:
        """Violation threshold: tol_abs + tol_rel * max(1, |rhs|)."""
        return self.tol_abs + self.tol_rel * max(1.0, abs(rhs))

    def replace(self, **kw) -> "CheckConfig":
        data = {k: getattr(self, k) for k in self.__dataclass_fields__}
        data.update(kw)
        return CheckConfig(**data)

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass(frozen=True)
class Witness:
    points: tuple[Point, ...]
    t: float | None
    lhs: float
    rhs: float
    violation: float
    origin_index: int | None = None  # sample index the refinement started from

    def to_dict(self) -> dict:
        return {
            "points": [list(p.coords) for p in self.points],
            "t": self.t,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violation": self.violation,
            "origin_index": self.origin_index,
        }


@dataclass(frozen=True)
class Report:
    verdict: Verdict
    max_violation: float | None
    witness: Witness | None
    samples_used: int
    seed: int
    flags: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    refined: tuple[Witness, ...] = ()  # every refinement-confirmed violation

    def __post_init__(self):
        has_witness = self.witness is not None
        if (self.verdict is Verdict.VIOLATED) != has_witness:
            raise ValueError("witness present iff verdict is Violated")

    @property
    def holds(self) -> bool:
        return self.verdict is Verdict.HOLDS_ON_SAMPLES

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "max_violation": self.max_violation,
            "witness": self.witness.to_dict() if self.witness else None,
            "samples_used": self.samples_used,
            "seed": self.seed,
            "flags": dict(sorted(self.flags.items())),
            "notes": list(self.notes),
            "refined_witnesses": [w.to_dict() for w in self.refined],
        }

