"""The shared run configuration threading through every layer.

Every co-optimization knob (worker count, cache location, estimator
samples, evaluation grid, compression mode, power budget, search
backend, stage selection, ...) lives in one frozen value object that
:func:`~repro.pipeline.pipeline.plan` routes to its stages, the CLI
builds once per invocation, the planning service ships across
processes, and the experiment drivers forward verbatim.

A config also decides which registered architecture/schedule stages
run it (:meth:`RunConfig.stage_names`), and refuses at construction
any combination that those stages would silently ignore or crash on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Literal, Mapping

from repro.compression.estimator import DEFAULT_SAMPLES
from repro.explore.cache import AnalysisDiskCache, resolve_cache
from repro.explore.dse import DEFAULT_GRID, Mode, analyze_soc_cores

if TYPE_CHECKING:
    from repro.explore.dse import CoreAnalysis
    from repro.search.backend import BackendConfig
    from repro.soc.core import Core

#: Accepted compression placements/modes: "per-core" decompressors (the
#: paper, Figure 4(c)), "none" (no TDC, Figure 4(a)), "auto" (a core
#: bypasses its decompressor when that is faster), "select" (per-core
#: technique selection), and "per-tam" (one decompressor per TAM, the
#: Figure 4(b) flow).
Compression = Literal["none", "per-core", "auto", "select", "per-tam"]

COMPRESSION_MODES: tuple[str, ...] = (
    "none",
    "per-core",
    "auto",
    "select",
    "per-tam",
)

#: Sentinel: "no cache argument given, resolve from the config".
_UNSET: Any = object()


#: The stage pairs that only work together: each architecture stage
#: hands its schedule stage a private result.
_PAIRED_STAGES = ("constrained", "per-tam", "packing")

#: The optional request fields each built-in architecture stage honours.
#: A config setting a field its stage does not honour is rejected, so a
#: plan never silently drops a budget, a search backend or a packer knob.
#: Stages registered by other code are not checked.
_HONOURED: dict[str, frozenset[str]] = {
    "partition": frozenset({"strategy", "search_opts", "power_of"}),
    "robust": frozenset({"strategy", "search_opts"}),
    "constrained": frozenset({"power_budget", "power_of", "precedence"}),
    "per-tam": frozenset(),
    "packing": frozenset({"pack_opts"}),
}


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one co-optimization run, in one place.

    Groups (see docs/api.md, "Pipeline architecture"):

    * **what to plan** -- ``compression`` (mode/placement), the
      partition-search controls ``max_tams`` / ``min_tam_width`` /
      ``strategy`` (the :mod:`repro.search` backend) with
      ``search_opts`` carrying its hyperparameters, the per-TAM
      flow's ``min_code_width``, and the explicit stage selection
      ``architecture`` / ``schedule`` (registry names such as
      ``"packing"``; ``"auto"`` keeps the built-in routing) with
      ``pack_opts`` carrying the rectangle packer's knobs;
    * **analysis fidelity** -- ``mode`` / ``samples`` / ``grid``,
      passed to the per-core design-space exploration;
    * **constraints** -- ``power_budget`` / ``power_of`` /
      ``precedence`` (the constrained scheduler engages when any is
      set; ``power_of`` alone also feeds the multi-objective search
      backends of an explicit ``architecture="partition"``);
    * **performance** -- ``jobs`` worker processes and the persistent
      analysis cache knobs ``cache_dir`` / ``use_cache`` (environment
      overrides ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` /
      ``REPRO_NO_CACHE`` are applied at resolve time, so a default
      config still honors them);
    * **verification** -- ``verify`` appends the independent invariant
      checker (:mod:`repro.verify`) as a final pipeline stage; a plan
      that fails it raises
      :class:`~repro.verify.invariants.PlanVerificationError` instead
      of being returned.

    The object is frozen: derive variants with :meth:`replace`.
    Construction raises ``ValueError`` for a combination no pipeline
    honours (see :meth:`stage_names`).
    """

    compression: Compression = "per-core"
    mode: Mode = "auto"
    samples: int = DEFAULT_SAMPLES
    grid: int = DEFAULT_GRID
    max_tams: int | None = None
    min_tam_width: int = 1
    min_code_width: int = 3
    strategy: str = "auto"
    search_opts: tuple[tuple[str, str], ...] = ()
    architecture: str = "auto"
    schedule: str = "auto"
    pack_opts: tuple[tuple[str, str], ...] = ()
    power_budget: float | None = None
    power_of: Mapping[str, float] | None = None
    precedence: tuple[tuple[str, str], ...] = ()
    jobs: int | None = None
    cache_dir: str | None = None
    use_cache: bool | None = None
    verify: bool = False

    def __post_init__(self) -> None:
        if self.compression not in COMPRESSION_MODES:
            raise ValueError(f"unknown compression mode {self.compression!r}")
        if self.min_tam_width < 1:
            raise ValueError(
                f"min_tam_width must be >= 1, got {self.min_tam_width}"
            )
        # Normalize precedence pairs so equality/JSON behave predictably.
        object.__setattr__(
            self,
            "precedence",
            tuple((str(a), str(b)) for a, b in self.precedence),
        )
        # Backend hyperparameters travel as sorted (key, value-string)
        # pairs: hashable on the frozen config, JSON-clean, and coerced
        # to real types only by the chosen backend's declared knobs.
        object.__setattr__(
            self,
            "search_opts",
            tuple(
                sorted((str(k), str(v)) for k, v in dict(self.search_opts).items())
            ),
        )
        # Packer options travel the same way (hashable, JSON-clean).
        object.__setattr__(
            self,
            "pack_opts",
            tuple(
                sorted((str(k), str(v)) for k, v in dict(self.pack_opts).items())
            ),
        )
        self._check_stages()

    def stage_names(self) -> tuple[str, str]:
        """The registered ``(architecture, schedule)`` stages that plan this.

        Explicit ``architecture`` / ``schedule`` names win, an ``"auto"``
        side falling back to the standard flow's stage.  Otherwise
        ``compression="per-tam"`` routes to the Figure 4(b) stages, any
        constraint field to the constrained stages, and everything else
        to the paper's partition search and list scheduler.
        """
        if self.architecture != "auto" or self.schedule != "auto":
            return (
                "partition" if self.architecture == "auto" else self.architecture,
                "list" if self.schedule == "auto" else self.schedule,
            )
        if self.compression == "per-tam":
            return ("per-tam", "per-tam")
        if self.is_constrained:
            return ("constrained", "constrained")
        return ("partition", "list")

    def _check_stages(self) -> None:
        """Reject a config its stages would ignore in part or crash on."""
        architecture, schedule = self.stage_names()
        for name in _PAIRED_STAGES:
            if (architecture == name) != (schedule == name):
                raise ValueError(
                    f"the {name} architecture and schedule stages must be "
                    "selected together (the schedule stage materializes "
                    "the architecture stage's plan)"
                )
        if (self.compression == "per-tam") != (architecture == "per-tam"):
            raise ValueError(
                "compression='per-tam' and the per-tam stages only plan "
                f"together (compression={self.compression!r}, architecture "
                f"stage {architecture!r})"
            )
        honoured = _HONOURED.get(architecture)
        if honoured is None:
            return
        requested = {
            "strategy": self.strategy != "auto",
            "search_opts": bool(self.search_opts),
            "power_budget": self.power_budget is not None,
            "power_of": self.power_of is not None,
            "precedence": bool(self.precedence),
            "pack_opts": bool(self.pack_opts),
        }
        ignored = sorted(
            field for field, is_set in requested.items()
            if is_set and field not in honoured
        )
        if ignored:
            raise ValueError(
                f"the {architecture} flow does not honour "
                f"{', '.join(ignored)}; no pipeline plans this config"
            )

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-ready form; inverse of :meth:`from_dict`.

        ``from_dict(to_dict(c)) == c`` for every config (the planning
        service ships configs across processes and sockets this way).
        """
        data = dataclasses.asdict(self)
        data["precedence"] = [list(pair) for pair in self.precedence]
        data["search_opts"] = [list(pair) for pair in self.search_opts]
        data["pack_opts"] = [list(pair) for pair in self.pack_opts]
        if self.power_of is not None:
            data["power_of"] = dict(self.power_of)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` data.

        Unknown keys raise: a request asking for a knob this build does
        not understand must fail loudly, not plan something else.
        """
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(
                f"unknown RunConfig fields: {', '.join(sorted(unknown))}"
            )
        kwargs = dict(data)
        if "precedence" in kwargs and kwargs["precedence"] is not None:
            kwargs["precedence"] = tuple(
                (str(a), str(b)) for a, b in kwargs["precedence"]
            )
        return cls(**kwargs)

    def search_options(self) -> dict[str, str]:
        """The backend hyperparameter overrides as a plain dict."""
        return dict(self.search_opts)

    def pack_options(self) -> dict[str, str]:
        """The rectangle-packer overrides as a plain dict."""
        return dict(self.pack_opts)

    def backend_config(self) -> "BackendConfig":
        """The architecture-search backend choice this config implies."""
        from repro.search.backend import BackendConfig

        return BackendConfig(name=self.strategy, options=self.search_opts)

    @property
    def is_constrained(self) -> bool:
        """Whether the power/precedence scheduler must engage."""
        return (
            self.power_budget is not None
            or self.power_of is not None
            or bool(self.precedence)
        )

    # ------------------------------------------------------------------
    # Resolution of the performance knobs (env-aware).
    # ------------------------------------------------------------------

    def resolve_cache(self) -> AnalysisDiskCache | None:
        """The persistent analysis cache this run uses, or ``None``."""
        return resolve_cache(self.cache_dir, self.use_cache)

    def resolve_jobs(self) -> int:
        """Effective worker-process count (env default applied)."""
        from repro.parallel import resolve_jobs

        return resolve_jobs(self.jobs)

    def analyses(
        self,
        cores: Iterable["Core"],
        *,
        max_tam_width: int | None = None,
        mode: Mode | None = None,
        samples: int | None = None,
        grid: int | None = None,
        cache: AnalysisDiskCache | None = _UNSET,
    ) -> dict[str, "CoreAnalysis"]:
        """Per-core analysis tables under this config's knobs.

        This is the single funnel every consumer (pipeline stages,
        figure drivers, ad-hoc scripts) goes through, so the jobs/cache
        plumbing cannot drift between call sites.  The keyword overrides
        exist for drivers that need a non-default grid (Figure 2 plots a
        denser sweep) without forking a whole config.
        """
        if cache is _UNSET:
            cache = self.resolve_cache()
        return analyze_soc_cores(
            cores,
            mode=mode if mode is not None else self.mode,
            samples=samples if samples is not None else self.samples,
            grid=grid if grid is not None else self.grid,
            max_tam_width=max_tam_width,
            jobs=self.jobs,
            cache=cache,
        )
