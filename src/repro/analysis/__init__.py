"""Static capability-footprint inference and contract lint.

SHILL's pitch is that a script's authority is inspectable *before* it
runs: the contract on each export bounds what the body may touch.  This
package makes that claim executable without executing anything — an
abstract interpreter over :mod:`repro.lang.ast_` infers each script's
capability **footprint** (privileges exercised per contract parameter,
path prefixes read/written by ambient scripts, network and wallet use)
and a rule engine compares footprint against contract to flag
least-privilege gaps, guaranteed runtime violations, and dead contract
clauses, each with a stable ``SHnnn`` code, a source span, and the
blamed party.

Entry points:

* :func:`lint_source` / :func:`lint_scripts` — analyse and lint.
* :func:`analyze_source` — footprint inference only.
* :class:`RuleSet` / :class:`FakeRuleSet` — pluggable rules.
* :class:`LintRejection` / :func:`gate_jobs` — pre-dispatch gating for
  :class:`repro.api.Batch`.
* :func:`may_depend` / :class:`WorldDelta` / :class:`Verdict` — the
  dependency-aware cache-invalidation decision procedure
  (:mod:`repro.analysis.deps`).
"""

from repro.analysis.deps import (
    INVALID,
    UNKNOWN,
    VALID,
    Verdict,
    WorldDelta,
    may_depend,
    prefixes_intersect,
    soundness_escapes,
    world_delta_between,
    world_delta_of,
)
from repro.analysis.footprint import (
    Diagnostic,
    ExportFootprint,
    Footprint,
    ParamFootprint,
    SEVERITIES,
)
from repro.analysis.gate import LINT_MODES, LintRejection, gate_jobs
from repro.analysis.infer import ModuleAnalysis, analyze_source
from repro.analysis.lint import (
    LintReport,
    lint_scripts,
    lint_source,
    render_human,
    render_json,
)
from repro.analysis.rules import (
    DEFAULT_RULES,
    FakeRuleSet,
    LintRule,
    RULE_CATALOG,
    RuleSet,
)

__all__ = [
    "Diagnostic",
    "ExportFootprint",
    "Footprint",
    "ParamFootprint",
    "SEVERITIES",
    "LINT_MODES",
    "LintRejection",
    "gate_jobs",
    "ModuleAnalysis",
    "analyze_source",
    "LintReport",
    "lint_scripts",
    "lint_source",
    "render_human",
    "render_json",
    "DEFAULT_RULES",
    "FakeRuleSet",
    "LintRule",
    "RULE_CATALOG",
    "RuleSet",
    "VALID",
    "INVALID",
    "UNKNOWN",
    "Verdict",
    "WorldDelta",
    "may_depend",
    "prefixes_intersect",
    "soundness_escapes",
    "world_delta_between",
    "world_delta_of",
]
