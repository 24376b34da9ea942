"""Model registry: resolve the paper's model names into classes and instances."""

from __future__ import annotations

from typing import Dict, List, Optional, Type

from .base import KGEModel, ModelConfig
from .conve import ConvE
from .factorization import ComplEx, DistMult, RESCAL, TuckER
from .translational import RotatE, TransD, TransE, TransH, TransR

#: Canonical model names as the paper spells them, mapped to classes.
MODEL_REGISTRY: Dict[str, Type[KGEModel]] = {
    "TransE": TransE,
    "TransH": TransH,
    "TransR": TransR,
    "TransD": TransD,
    "RESCAL": RESCAL,
    "DistMult": DistMult,
    "ComplEx": ComplEx,
    "ConvE": ConvE,
    "RotatE": RotatE,
    "TuckER": TuckER,
}

#: The six representative models the paper uses in Figure 1 and most analyses.
CORE_MODELS: List[str] = ["TransE", "DistMult", "ComplEx", "ConvE", "RotatE", "TuckER"]

#: The full lineup of Tables 5 and 6 (excluding AMIE, which is not an embedding model).
ALL_EMBEDDING_MODELS: List[str] = list(MODEL_REGISTRY)

#: Precomputed case-insensitive lookup tables: resolving a model name is O(1)
#: (it happens once per model per dataset per experiment driver).
_REGISTRY_BY_LOWER: Dict[str, Type[KGEModel]] = {
    canonical.lower(): model_class for canonical, model_class in MODEL_REGISTRY.items()
}
_CANONICAL_BY_LOWER: Dict[str, str] = {
    canonical.lower(): canonical for canonical in MODEL_REGISTRY
}


def suggest_model(name: str) -> Optional[str]:
    """The closest canonical model name to ``name``, if any is plausible."""
    import difflib

    matches = difflib.get_close_matches(
        str(name).lower(), list(_CANONICAL_BY_LOWER), n=1, cutoff=0.6
    )
    return _CANONICAL_BY_LOWER[matches[0]] if matches else None


class UnknownModelError(KeyError):
    """Raised when a model name is not in the registry.

    Carries a ``suggestion`` (closest canonical name or ``None``) so callers
    — the CLI and the spec validator — can render a did-you-mean hint.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.suggestion = suggest_model(name)
        message = f"unknown model {name!r}; known models: {', '.join(MODEL_REGISTRY)}"
        if self.suggestion:
            message += f" (did you mean {self.suggestion!r}?)"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message otherwise
        return self.args[0]


def resolve_model_class(name: str) -> Type[KGEModel]:
    """Case-insensitive lookup of a model class by its paper name."""
    try:
        return _REGISTRY_BY_LOWER[name.lower()]
    except KeyError:
        raise UnknownModelError(name) from None


def make_model(
    name: str,
    num_entities: int,
    num_relations: int,
    config: Optional[ModelConfig] = None,
) -> KGEModel:
    """Instantiate a model by name."""
    model_class = resolve_model_class(name)
    return model_class(num_entities, num_relations, config)
