"""Per-rule allow/deny tests: every SHnnn fires on a purpose-built bad
fixture and stays silent on the matching good one, with exact code,
span, and blame-party assertions on the two headline directions
(over-granted contract, under-privileged script)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    Diagnostic,
    FakeRuleSet,
    RULE_CATALOG,
    RuleSet,
    lint_source,
)


def codes(report):
    return [d.code for d in report.diagnostics]


# ---------------------------------------------------------------------------
# SH001: over-granted contract (least-privilege gap)
# ---------------------------------------------------------------------------

OVER_CAP = """\
#lang shill/cap
provide peek : {f : file(+read, +write)} -> void;
peek = fun(f) { read(f); }
"""


def test_sh001_fires_on_unused_grant_with_span_and_blame():
    report = lint_source("over.cap", OVER_CAP)
    [diag] = report.diagnostics
    assert diag.code == "SH001" and diag.severity == "warning"
    # The span points at the +write item inside the contract text.
    line = OVER_CAP.splitlines()[diag.line - 1]
    assert diag.line == 2 and line[diag.col - 1:].startswith("+write")
    # Over-grants blame the caller — they supplied more than needed.
    assert diag.blame == "caller of 'peek' (over-granted)"
    assert diag.param == "f"


def test_sh001_silent_when_every_grant_is_used():
    report = lint_source("tight.cap", """\
#lang shill/cap
provide peek : {f : file(+read)} -> void;
peek = fun(f) { read(f); }
""")
    assert report.clean


def test_sh001_silent_when_parameter_escapes_into_a_sandbox():
    # A capability handed to exec exercises its authority out of sight;
    # claiming the grant is unused would be a false positive.
    report = lint_source("runner.cap", """\
#lang shill/cap
provide run : {prog : file(+exec, +read)} -> is_num;
run = fun(prog) { exec(prog, []); }
""")
    assert "SH001" not in codes(report)


# ---------------------------------------------------------------------------
# SH002: under-privileged script (guaranteed runtime violation)
# ---------------------------------------------------------------------------

UNDER_CAP = """\
#lang shill/cap
provide scrub : {log : file(+read, +stat)} -> void;
scrub = fun(log) {
  write(log, "");
}
"""


def test_sh002_fires_with_span_at_first_use_and_script_blame():
    report = lint_source("under.cap", UNDER_CAP)
    [diag] = report.errors
    assert diag.code == "SH002" and diag.severity == "error"
    # The span is the first use of the missing privilege (the write on
    # line 4), not the contract.
    line = UNDER_CAP.splitlines()[diag.line - 1]
    assert diag.line == 4 and line[diag.col - 1:].startswith("write(log")
    assert "+write" in diag.message
    # Guaranteed violations blame the script, which promised to live
    # within its contract.
    assert diag.blame == "script 'under.cap'"
    assert diag.param == "log"


def test_sh002_respects_disjunct_branches():
    # The write is admitted by the second clause: no violation.
    report = lint_source("either.cap", """\
#lang shill/cap
provide go : {f : file(+read) \\/ file(+write)} -> void;
go = fun(f) { write(f, "x"); }
""")
    assert "SH002" not in codes(report)


def test_sh002_catches_with_modifier_violations_on_derived_caps():
    report = lint_source("mod.cap", """\
#lang shill/cap
provide go : {d : dir(+lookup with {+read})} -> void;
go = fun(d) {
  child = lookup(d, "a");
  write(child, "x");
}
""")
    [diag] = report.errors
    assert diag.code == "SH002" and diag.line == 5
    assert "beyond the contract's 'with' modifier" in diag.message


def test_sh002_cross_module_call_requires_callee_grant():
    # The ambient mints full-authority caps, but go() passes its
    # parameter on to a required script whose contract demands +write —
    # go's own contract must therefore grant +write too.
    registry = {"writer.cap": """\
#lang shill/cap
provide put : {f : file(+write)} -> void;
put = fun(f) { write(f, "x"); }
"""}
    report = lint_source("fwd.cap", """\
#lang shill/cap
require "writer.cap";
provide go : {f : file(+read)} -> void;
go = fun(f) { put(f); }
""", registry=registry)
    assert [d.code for d in report.errors] == ["SH002"]


# ---------------------------------------------------------------------------
# SH003: shadowed disjunct
# ---------------------------------------------------------------------------


def test_sh003_flags_dead_later_clause():
    report = lint_source("shadow.cap", """\
#lang shill/cap
provide go : {f : file(+read) \\/ file(+read, +write)} -> void;
go = fun(f) { read(f); }
""")
    shadowed = [d for d in report.diagnostics if d.code == "SH003"]
    [diag] = shadowed
    assert "clause 2" in diag.message and "clause 1" in diag.message
    assert diag.blame == "contract of 'go'"


def test_sh003_silent_when_clauses_differ_in_kind():
    report = lint_source("kinds.cap", """\
#lang shill/cap
provide go : {f : dir(+lookup) \\/ file(+read)} -> void;
go = fun(f) { if is_file(f) then read(f); }
""")
    assert "SH003" not in codes(report)


# ---------------------------------------------------------------------------
# SH004: unknown contract name
# ---------------------------------------------------------------------------


def test_sh004_fires_on_unknown_name_and_not_on_library_names():
    report = lint_source("unk.cap", """\
#lang shill/cap
provide go : {f : mystery_ctc, g : is_file && readonly} -> void;
go = fun(f, g) { read(g); }
""")
    unknown = [d for d in report.diagnostics if d.code == "SH004"]
    [diag] = unknown
    assert "'mystery_ctc'" in diag.message and diag.severity == "error"


# ---------------------------------------------------------------------------
# SH005: ambient capability minted but never used
# ---------------------------------------------------------------------------


def test_sh005_fires_on_unused_mint_and_not_on_used_one():
    report = lint_source("waste.ambient", """\
#lang shill/ambient
unused = open_file("/home/alice/notes.txt");
used = open_dir("/tmp");
contents(used);
""")
    [diag] = [d for d in report.diagnostics if d.code == "SH005"]
    assert "'/home/alice/notes.txt'" in diag.message and diag.line == 2


def test_sh005_treats_predicate_contract_passthrough_as_use():
    # A predicate contract (is_list) does not attenuate: the callee's
    # own behaviour governs, so mints passed through it are used.
    registry = {"sink.cap": """\
#lang shill/cap
provide consume : {items : is_list} -> void;
consume = fun(items) { for f in items { read(f); } }
"""}
    report = lint_source("feeder.ambient", """\
#lang shill/ambient
require "sink.cap";
a = open_file("/home/alice/notes.txt");
b = open_file("/home/bob/cat.txt");
consume([a, b]);
""", registry=registry)
    assert "SH005" not in codes(report)


# ---------------------------------------------------------------------------
# SH006 / SH007: network and wallet grants
# ---------------------------------------------------------------------------


def test_sh006_fires_without_socket_factory_and_not_with_one():
    bad = lint_source("net.cap", """\
#lang shill/cap
provide go : {fac : is_cap} -> void;
go = fun(fac) { s = create_socket(fac); }
""")
    [diag] = bad.errors
    assert diag.code == "SH006" and diag.param == "fac"
    good = lint_source("net_ok.cap", """\
#lang shill/cap
provide go : {fac : socket_factory} -> void;
go = fun(fac) { s = create_socket(fac); }
""")
    assert "SH006" not in codes(good)


def test_sh007_fires_on_non_wallet_contract_and_not_on_native_wallet():
    bad = lint_source("wal.cap", """\
#lang shill/cap
provide go : {w : is_dir && readonly} -> void;
go = fun(w) { p = pkg_native("curl", w); }
""")
    assert [d.code for d in bad.errors] == ["SH007"]
    good = lint_source("wal_ok.cap", """\
#lang shill/cap
provide go : {w : native_wallet} -> void;
go = fun(w) { p = pkg_native("curl", w); }
""")
    assert "SH007" not in codes(good)


# ---------------------------------------------------------------------------
# SH008 / SH009: unresolved requires and syntax errors
# ---------------------------------------------------------------------------


def test_sh008_warns_on_unresolvable_require():
    report = lint_source("lost.ambient", """\
#lang shill/ambient
require "nowhere.cap";
""")
    [diag] = [d for d in report.diagnostics if d.code == "SH008"]
    assert "'nowhere.cap'" in diag.message and diag.severity == "warning"


def test_sh009_reports_syntax_errors_as_diagnostics():
    report = lint_source("broken.cap", "#lang shill/cap\nprovide = = ;\n")
    assert [d.code for d in report.errors] == ["SH009"]
    assert report.footprint.script == "broken.cap"


def test_sh009_reports_a_malformed_number_literal_at_its_token():
    report = lint_source("num.cap", "#lang shill/cap\nx = 1.2.3;\n")
    [diag] = report.errors
    assert diag.code == "SH009" and (diag.line, diag.col) == (2, 5)
    assert "malformed number literal '1.2.3'" in diag.message


def test_sh009_reports_deep_nesting_at_its_opening_token():
    report = lint_source("deep.cap", "#lang shill/cap\nx = " + "(" * 150 + "1"
                         + ")" * 150 + ";\n")
    [diag] = report.errors
    assert diag.code == "SH009" and (diag.line, diag.col) == (2, 69)
    assert "nested too deeply" in diag.message


# ---------------------------------------------------------------------------
# SH010: uncacheable footprint (names the flag forcing UNKNOWN)
# ---------------------------------------------------------------------------

SH010_ON = RuleSet(severities={"SH010": "warning"})

WALLET_CAP = """\
#lang shill/cap
require shill/native;
provide launch : {w : native_wallet} -> is_num;
launch = fun(w) { prog = pkg_native("true", w); prog([]); }
"""


def test_sh010_is_off_by_default():
    assert not [d for d in lint_source("w.cap", WALLET_CAP).diagnostics
                if d.code == "SH010"]


def test_sh010_names_the_param_flag_when_enabled():
    report = lint_source("w.cap", WALLET_CAP, rules=SH010_ON)
    diags = [d for d in report.diagnostics if d.code == "SH010"]
    assert diags, codes(report)
    [diag] = [d for d in diags if d.param == "w"]
    assert "wallet authority" in diag.message
    assert diag.blame == "contract of 'launch'"


def test_sh010_flags_ambient_network_use():
    report = lint_source("net.ambient", """\
#lang shill/ambient
sock = create_socket(socket_factory);
""", rules=SH010_ON)
    diags = [d for d in report.diagnostics if d.code == "SH010"]
    assert any("network" in d.message for d in diags)


def test_sh010_silent_on_a_cacheable_script():
    report = lint_source("walk.ambient", """\
#lang shill/ambient
docs = open_dir("/home/alice/Documents");
entries = contents(docs);
""", rules=SH010_ON)
    assert not [d for d in report.diagnostics if d.code == "SH010"]


# ---------------------------------------------------------------------------
# SH011: footprint wider than recorded behavior (stale contract)
# ---------------------------------------------------------------------------

WALK_TWO_DIRS = """\
#lang shill/ambient
docs = open_dir("/home/alice/Documents");
pics = open_dir("/home/alice/Pictures");
entries = contents(docs);
more = contents(pics);
"""


def _sh011(recordings):
    from repro.analysis.rules import StaleFootprintRule

    return RuleSet(rules=(StaleFootprintRule(recordings),),
                   severities={"SH011": "warning"})


def test_sh011_flags_prefixes_no_recorded_run_touched():
    rules = _sh011({"walk.ambient": [("read", "/home/alice/Documents/a.jpg")]})
    report = lint_source("walk.ambient", WALK_TWO_DIRS, rules=rules)
    [diag] = report.diagnostics
    assert diag.code == "SH011"
    assert "'/home/alice/Pictures'" in diag.message
    assert "stale contract" in diag.message


def test_sh011_silent_when_recordings_cover_the_footprint():
    rules = _sh011({"walk.ambient": [
        ("read", "/home/alice/Documents/a.jpg"),
        ("read", "/home/alice/Pictures"),
    ]})
    report = lint_source("walk.ambient", WALK_TWO_DIRS, rules=rules)
    assert report.clean


def test_sh011_kind_must_match_not_just_the_path():
    # A recorded *read* under a prefix does not witness *write* authority.
    rules = _sh011({"note.ambient": [("read", "/tmp/notes.txt")]})
    report = lint_source("note.ambient", """\
#lang shill/ambient
out = open_file("/tmp/notes.txt");
append(out, "x");
""", rules=rules)
    assert any(d.code == "SH011" and "write" in d.message
               for d in report.diagnostics)


def test_sh011_inert_without_recordings():
    report = lint_source("walk.ambient", WALK_TWO_DIRS,
                         rules=_sh011({}))
    assert report.clean


# ---------------------------------------------------------------------------
# the engine: severity config, catalog, FakeRuleSet
# ---------------------------------------------------------------------------


def test_severity_overrides_rewrite_and_off_suppresses():
    promoted = RuleSet(severities={"SH001": "error"})
    report = lint_source("over.cap", OVER_CAP, rules=promoted)
    assert [d.severity for d in report.diagnostics] == ["error"]

    silenced = RuleSet(severities={"SH001": "off"})
    assert lint_source("over.cap", OVER_CAP, rules=silenced).clean


def test_ruleset_rejects_unknown_severity():
    with pytest.raises(ValueError, match="unknown severity"):
        RuleSet(severities={"SH001": "fatal"})


def test_rule_catalog_matches_shipped_rules():
    assert list(RULE_CATALOG) == (
        [f"SH00{i}" for i in range(1, 10)] + ["SH010", "SH011"])
    # SH010/SH011 are opt-in (cacheability advisories), hence "off".
    assert all(sev in ("error", "warning", "off")
               for _, sev in RULE_CATALOG.values())


def test_fake_ruleset_records_analyses_and_returns_canned_output():
    canned = Diagnostic(code="X999", severity="error", message="no")
    fake = FakeRuleSet([canned])
    report = lint_source("tight.cap", OVER_CAP, rules=fake)
    assert report.diagnostics == (canned,)
    assert [a.name for a in fake.seen] == ["tight.cap"]
    # The analysis itself still happened: the footprint rides along.
    assert fake.seen[0].footprint.script == "tight.cap"
