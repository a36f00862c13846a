"""Answer orders: lexicographic orders (LEX) and sum-of-weights orders (SUM).

Section 2.2 of the paper defines the two order families over the answers of a
CQ:

* A (partial) **lexicographic order** ``L`` is a sequence of distinct free
  variables; answers are compared variable by variable along ``L``.
* A **sum-of-weights order** assigns every free variable ``x`` a weight
  function ``w_x : dom → R``; the weight of an answer is the sum of the
  weights of its free-variable values, and answers are sorted by weight.

:class:`LexOrder` and :class:`Weights` capture the two families, including the
conversions between attribute weights and per-answer weights that the SUM
algorithms need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exceptions import QueryStructureError, WeightError


class ReversedValue:
    """A comparison-reversing wrapper: orders exactly opposite to its value.

    Supports descending lexicographic components over arbitrary (sortable)
    domains — strings, dates, tuples — where the numeric negation trick does
    not apply.  Binary search stays applicable because a list sorted by
    descending values is ascending in their wrappers.

    This is the single shared descending-order comparator: the preprocessing
    bucket sort, the columnar backend's layer-value decoding and the
    materialise-and-sort baseline all build their keys through
    :func:`order_key`.
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __lt__(self, other) -> bool:
        if not isinstance(other, ReversedValue):
            return NotImplemented
        return other.value < self.value

    def __le__(self, other) -> bool:
        if not isinstance(other, ReversedValue):
            return NotImplemented
        return other.value <= self.value

    def __gt__(self, other) -> bool:
        if not isinstance(other, ReversedValue):
            return NotImplemented
        return other.value > self.value

    def __ge__(self, other) -> bool:
        if not isinstance(other, ReversedValue):
            return NotImplemented
        return other.value >= self.value

    def __eq__(self, other) -> bool:
        return isinstance(other, ReversedValue) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("ReversedValue", self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"desc({self.value!r})"


def order_key(value, descending: bool):
    """Sort key for a single domain value, honouring per-variable direction.

    Ascending components sort by the value itself.  Descending numeric values
    are negated (cheap, and binary search stays applicable); every other
    descending domain is wrapped in :class:`ReversedValue`, whose comparisons
    are the reverse of the value's own — so descending string or date orders
    work instead of raising.
    """
    if not descending:
        return value
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        return -value
    return ReversedValue(value)


@dataclass(frozen=True)
class LexOrder:
    """A (partial) lexicographic order over free variables.

    ``variables`` lists the ordered variables; ``descending`` optionally marks
    variables whose value order is reversed (an extension beyond the paper's
    ascending-only presentation that several applications expect; it does not
    change the tractability classification because reversing a per-variable
    order is an order isomorphism of the domain).
    """

    variables: Tuple[str, ...]
    descending: Tuple[str, ...] = ()

    def __init__(self, variables: Sequence[str], descending: Iterable[str] = ()):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise QueryStructureError(f"lexicographic order repeats variables: {variables}")
        descending = tuple(descending)
        unknown = [v for v in descending if v not in variables]
        if unknown:
            raise QueryStructureError(f"descending variables {unknown} are not part of the order")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "descending", descending)

    # ------------------------------------------------------------------
    def __iter__(self):
        return iter(self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, variable: str) -> bool:
        return variable in self.variables

    def position(self, variable: str) -> int:
        """Index of ``variable`` in the order (0-based)."""
        return self.variables.index(variable)

    def is_descending(self, variable: str) -> bool:
        return variable in self.descending

    def variable_set(self) -> frozenset:
        return frozenset(self.variables)

    def is_partial_for(self, query) -> bool:
        """Whether the order omits some free variable of ``query``."""
        return set(self.variables) != set(query.free_variables)

    def validate_for(self, query) -> None:
        """Raise unless every order variable is a free variable of ``query``."""
        free = set(query.free_variables)
        bad = [v for v in self.variables if v not in free]
        if bad:
            raise QueryStructureError(
                f"order variables {bad} are not free variables of {query.name}"
            )

    def prefix(self, length: int) -> "LexOrder":
        """The prefix of the first ``length`` variables."""
        kept = self.variables[:length]
        return LexOrder(kept, tuple(v for v in self.descending if v in kept))

    def extended(self, extra: Sequence[str]) -> "LexOrder":
        """A copy with ``extra`` variables appended (used for completions)."""
        return LexOrder(self.variables + tuple(v for v in extra if v not in self.variables), self.descending)

    def sort_key(self, free_variables: Sequence[str]) -> Callable[[Tuple], Tuple]:
        """A key function ordering answer tuples (aligned with ``free_variables``).

        Descending components use the shared :func:`order_key` comparator
        (negation for numbers, :class:`ReversedValue` for everything else), so
        the materialise-and-sort baselines rank exactly like the direct-access
        structures — non-numeric descending domains included.
        """
        positions = [free_variables.index(v) for v in self.variables]
        flips = [self.is_descending(v) for v in self.variables]

        def key(answer: Tuple) -> Tuple:
            return tuple(
                order_key(answer[position], flip)
                for position, flip in zip(positions, flips)
            )

        return key

    def __str__(self) -> str:
        rendered = [f"{v}↓" if self.is_descending(v) else v for v in self.variables]
        return "⟨" + ", ".join(rendered) + "⟩"


def _checked_weight(weight: object, what: str) -> float:
    """``weight`` if it can rank answers, else :class:`WeightError`.

    A weight is an ``int`` or ``float`` (not a ``bool``) and finite: strings
    cannot be added to numbers, and a NaN total compares false both ways, so
    the sorted answer array would have no well-defined ``k``-th answer.
    """
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise WeightError(f"{what} must be an int or float, got {weight!r}")
    if isinstance(weight, float) and not math.isfinite(weight):
        raise WeightError(f"{what} must be finite, got {weight!r}")
    return weight


class Weights:
    """Per-variable weight functions for SUM orders.

    A weight function maps domain values of a variable to real numbers.  Three
    construction styles are supported:

    * explicit dictionaries per variable (:meth:`__init__` / :meth:`set_weight`),
    * "the value is its own weight" (:meth:`identity`), matching Figure 2(d),
    * a default weight for unmapped values (``default``), matching the paper's
      convention that existential variables and irrelevant attributes weigh 0.

    Every weight — mapped, default or identity — must be a finite ``int`` or
    ``float`` other than a ``bool``; anything else raises
    :class:`~repro.exceptions.WeightError` where it enters.
    """

    def __init__(
        self,
        mappings: Optional[Mapping[str, Mapping[object, float]]] = None,
        default: Optional[float] = 0.0,
        identity_variables: Iterable[str] = (),
    ) -> None:
        self._maps: Dict[str, Dict[object, float]] = {}
        for variable, mapping in (mappings or {}).items():
            for value, weight in mapping.items():
                self.set_weight(variable, value, weight)
            self._maps.setdefault(variable, {})
        if default is not None:
            _checked_weight(default, "default weight")
        self._default = default
        self._identity = set(identity_variables)
        self._identity_all = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, variables: Iterable[str] = (), default: Optional[float] = 0.0) -> "Weights":
        """Weights where listed variables weigh their own (numeric) value.

        If ``variables`` is empty the identity rule applies to *every*
        variable, which is the convention of the paper's running examples.
        """
        variables = tuple(variables)
        instance = cls(default=default, identity_variables=variables)
        instance._identity_all = not variables
        return instance

    @classmethod
    def from_dict(cls, mappings: Mapping[str, Mapping[object, float]], default: Optional[float] = 0.0) -> "Weights":
        return cls(mappings=mappings, default=default)

    def set_weight(self, variable: str, value: object, weight: float) -> "Weights":
        """Set one weight (returns self for chaining)."""
        _checked_weight(weight, f"weight of {value!r} for {variable!r}")
        self._maps.setdefault(variable, {})[value] = weight
        return self

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def weight(self, variable: str, value: object) -> float:
        """The weight ``w_variable(value)``."""
        mapping = self._maps.get(variable)
        if mapping is not None and value in mapping:
            return mapping[value]
        if self._identity_all or variable in self._identity:
            return _checked_weight(value, f"identity weight of {variable!r}")
        if self._default is None:
            raise WeightError(f"no weight defined for value {value!r} of variable {variable!r}")
        return self._default

    def value_weights(self, variable: str, values: Sequence[object]) -> List[float]:
        """``[w_variable(v) for v in values]``: one lookup per value.

        A variable with no mapping and no identity rule weighs every value the
        constant default, so the list is built without any lookup.
        """
        if variable not in self._maps and not (self._identity_all or variable in self._identity):
            if self._default is None and len(values):
                raise WeightError(
                    f"no weight defined for value {values[0]!r} of variable {variable!r}"
                )
            return [self._default] * len(values)
        return [self.weight(variable, value) for value in values]

    def answer_weight(self, free_variables: Sequence[str], answer: Sequence[object]) -> float:
        """Total weight of an answer tuple aligned with ``free_variables``."""
        return sum(self.weight(var, val) for var, val in zip(free_variables, answer))

    def tuple_weight(self, variables: Sequence[str], row: Sequence[object], charged: Iterable[str]) -> float:
        """Weight of a relation tuple charging only the ``charged`` variables.

        This is the attribute-weights → tuple-weights conversion discussed in
        Section 2.2: each free variable is charged to exactly one atom so that
        summing tuple weights over an answer's tuples equals the answer weight.
        """
        charged = set(charged)
        return sum(
            self.weight(var, val) for var, val in zip(variables, row) if var in charged
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        keys = sorted(self._maps)
        return f"Weights(variables={keys}, default={self._default})"


@dataclass(frozen=True)
class SumOrder:
    """A SUM order: a :class:`Weights` object bundled as an order description.

    The classification of SUM problems does not depend on the concrete weight
    function (the problem is defined for the *family* of all weight functions),
    but executing direct access or selection does, so this small wrapper keeps
    the two together when convenient.
    """

    weights: Weights = field(default_factory=Weights.identity)

    def answer_weight(self, free_variables: Sequence[str], answer: Sequence[object]) -> float:
        return self.weights.answer_weight(free_variables, answer)
