"""The update-strategy registry.

Builders import their implementation modules lazily so that importing
:mod:`repro.algos.registry` (which :class:`repro.serve.spec.ServeSpec`
does during validation) never drags the harness/baseline stacks in —
and never forms an import cycle with :mod:`repro.serve`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algos.base import StrategyInfo

__all__ = [
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "get_strategy",
    "strategy_names",
    "build_strategy_runtime",
]

DEFAULT_STRATEGY = "p4update"


def _build_p4update(topology: Any, params: Any = None, obs: Any = None) -> Any:
    from repro.harness.build import build_p4update_network

    return build_p4update_network(topology, params=params, obs=obs)


def _build_p4update_sl(topology: Any, params: Any = None, obs: Any = None) -> Any:
    from repro.algos.p4u import build_forced_type_network
    from repro.core.messages import UpdateType

    return build_forced_type_network(
        topology, UpdateType.SINGLE, params=params, obs=obs
    )


def _build_p4update_dl(topology: Any, params: Any = None, obs: Any = None) -> Any:
    from repro.algos.p4u import build_forced_type_network
    from repro.core.messages import UpdateType

    return build_forced_type_network(
        topology, UpdateType.DUAL, params=params, obs=obs
    )


def _build_ezsegway(topology: Any, params: Any = None, obs: Any = None) -> Any:
    from repro.harness.baselines_build import build_ezsegway_network

    return build_ezsegway_network(topology, params=params, obs=obs)


def _build_central(topology: Any, params: Any = None, obs: Any = None) -> Any:
    from repro.harness.baselines_build import build_central_network

    return build_central_network(topology, params=params, obs=obs)


def _build_augmented(topology: Any, params: Any = None, obs: Any = None) -> Any:
    from repro.algos.augmented import build_augmented_network

    return build_augmented_network(topology, params=params, obs=obs)


def _build_synthesis(topology: Any, params: Any = None, obs: Any = None) -> Any:
    from repro.algos.synthesis import build_synthesis_network

    return build_synthesis_network(topology, params=params, obs=obs)


STRATEGIES: dict[str, StrategyInfo] = {
    info.name: info
    for info in (
        StrategyInfo(
            name="p4update",
            description=(
                "P4Update with the §7.5 SL/DL selection rule (the repo's "
                "default deployment)"
            ),
            builder=_build_p4update,
            decentralized=True,
        ),
        StrategyInfo(
            name="p4update-sl",
            description="P4Update forced to single-layer (SL) updates",
            builder=_build_p4update_sl,
            decentralized=True,
        ),
        StrategyInfo(
            name="p4update-dl",
            description="P4Update forced to dual-layer (DL) updates",
            builder=_build_p4update_dl,
            decentralized=True,
        ),
        StrategyInfo(
            name="ezsegway",
            description=(
                "ez-Segway decentralized segment flipping; the controller "
                "reports completion once every segment's Done arrived "
                "(capacity deferrals retry forever — deadlocked orders "
                "surface as unfinished requests)"
            ),
            builder=_build_ezsegway,
            decentralized=True,
        ),
        StrategyInfo(
            name="central",
            description=(
                "Dionysus-style central round scheduler; each round "
                "flips a jointly safe set across all pending flows (a "
                "stuck round surfaces as unfinished)"
            ),
            builder=_build_central,
        ),
        StrategyInfo(
            name="augmented",
            description=(
                "P4Update plus capacity augmentation: when the target "
                "path would transiently overcommit a link, the flow is "
                "detoured over a helper path with spare capacity first "
                "(Henzinger/Pourdamghani augmentation-speed tradeoff)"
            ),
            builder=_build_augmented,
            decentralized=True,
            uses_augmentation=True,
        ),
        StrategyInfo(
            name="synthesis",
            description=(
                "P4Update under a greedy ordering-synthesis gate: the "
                "interference analyzer's happens-before conflicts are "
                "topologically ordered by submission, so conflicting "
                "updates install strictly in sequence (McClurg-style "
                "synthesis baseline)"
            ),
            builder=_build_synthesis,
        ),
    )
}


def strategy_names() -> list[str]:
    """Registered strategy names, sorted for stable error messages."""
    return sorted(STRATEGIES)


def get_strategy(name: str) -> StrategyInfo:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; registered: {', '.join(strategy_names())}"
        ) from None


def build_strategy_runtime(
    name: str, topology: Any, params: Any = None, obs: Optional[Any] = None
) -> Any:
    """Build the deployment for ``name`` over ``topology``.

    The returned object satisfies :class:`repro.algos.base.StrategyRuntime`.
    """
    return get_strategy(name).builder(topology, params=params, obs=obs)
