"""The dependency analyzer: world deltas, `may_depend`, the soundness gate."""

from __future__ import annotations

import pytest

from repro.analysis.deps import (
    INVALID,
    UNKNOWN,
    VALID,
    Verdict,
    WorldDelta,
    expand_home,
    footprint_prefixes,
    may_depend,
    prefixes_intersect,
    soundness_escapes,
    world_delta_between,
    world_delta_of,
)
from repro.analysis.footprint import ExportFootprint, Footprint, ParamFootprint
from repro.api import World


def _fp(**kwargs) -> Footprint:
    kwargs.setdefault("script", "q.ambient")
    kwargs.setdefault("lang", "shill/ambient")
    return Footprint(**kwargs)


class TestPrefixIntersection:
    def test_equal_and_nested_both_directions(self):
        assert prefixes_intersect("/a/b", "/a/b")
        assert prefixes_intersect("/a", "/a/b/c")
        assert prefixes_intersect("/a/b/c", "/a")

    def test_disjoint_siblings(self):
        assert not prefixes_intersect("/a/b", "/a/bc")
        assert not prefixes_intersect("/home/alice", "/home/bob")

    def test_sentinels_never_intersect(self):
        assert not prefixes_intersect("<stdout>", "/")
        assert not prefixes_intersect("/", "<detached>")

    def test_trailing_slash_is_normalised(self):
        assert prefixes_intersect("/a/", "/a/b")

    def test_expand_home(self):
        assert expand_home("~", "/home/alice") == "/home/alice"
        assert expand_home("~/Documents", "/home/alice") == "/home/alice/Documents"
        assert expand_home("~/Documents", None) == "~/Documents"
        assert expand_home("/etc", "/home/alice") == "/etc"

    def test_footprint_prefixes_expands_and_drops_sentinels(self):
        fp = _fp(reads=("~/Documents",), writes=("<stdout>",), executes=("/bin",))
        assert footprint_prefixes(fp, "/home/alice") == \
            ("/home/alice/Documents", "/bin")


class TestMayDepend:
    def test_disjoint_delta_is_valid(self):
        fp = _fp(reads=("/home/alice/Documents",), writes=("<stdout>",))
        verdict = may_depend(fp, WorldDelta(writes=("/srv/other.txt",)))
        assert verdict.state == VALID and verdict.valid
        assert verdict.blame == ()

    def test_intersecting_write_names_the_prefix(self):
        fp = _fp(reads=("/home/alice/Documents",))
        verdict = may_depend(
            fp, WorldDelta(writes=("/home/alice/Documents/a.txt",)))
        assert verdict.state == INVALID
        assert "invalidated-by:/home/alice/Documents/a.txt" in verdict.blame

    def test_home_relative_reads_resolve_before_intersecting(self):
        fp = _fp(reads=("~/Documents",))
        delta = WorldDelta(writes=("/home/alice/Documents/a.txt",))
        assert may_depend(fp, delta, home="/home/alice").state == INVALID
        assert may_depend(fp, delta, home="/home/bob").state == VALID

    def test_unresolved_home_is_uncacheable(self):
        fp = _fp(reads=("~/Documents",))
        verdict = may_depend(fp, WorldDelta())
        assert verdict.state == UNKNOWN
        assert "uncacheable:unresolved-home:~/Documents" in verdict.blame

    def test_machine_state_mutations_invalidate_with_blame(self):
        fp = _fp(reads=("/srv",))
        cases = {
            "invalidated-by:config-mutation": WorldDelta(config_mutation=True),
            "invalidated-by:label-mutation": WorldDelta(label_mutation=True),
            "invalidated-by:watermark-drift": WorldDelta(watermark_drift=True),
            "invalidated-by:unknown-world-delta": WorldDelta(unknown=True),
        }
        for blame, delta in cases.items():
            verdict = may_depend(fp, delta)
            assert verdict.state == INVALID and blame in verdict.blame

    def test_missing_footprint_is_unknown(self):
        verdict = may_depend(None, WorldDelta())
        assert verdict.state == UNKNOWN
        assert verdict.blame == ("uncacheable:no-footprint",)

    def test_ambient_flags_force_unknown(self):
        assert "uncacheable:network" in \
            may_depend(_fp(network=True), WorldDelta()).blame
        assert "uncacheable:wallet" in \
            may_depend(_fp(wallet=True), WorldDelta()).blame
        assert "uncacheable:dynamic-path" in \
            may_depend(_fp(reads=("<dynamic>",)), WorldDelta()).blame
        assert "uncacheable:requires:other.cap" in \
            may_depend(_fp(requires=("other.cap",)), WorldDelta()).blame

    def test_param_authority_flags_force_unknown(self):
        export = ExportFootprint(name="go", params=(
            ParamFootprint(name="net", network=True),
            ParamFootprint(name="w", wallet=True),
            ParamFootprint(name="esc", escapes=True),
        ))
        verdict = may_depend(_fp(exports=(export,)), WorldDelta())
        assert verdict.state == UNKNOWN
        assert set(verdict.blame) == {
            "uncacheable:network:go/net",
            "uncacheable:wallet:go/w",
            "uncacheable:escape:go/esc",
        }

    def test_uncacheable_wins_over_invalid(self):
        """UNKNOWN (never cache) outranks INVALID (this delta hit):
        the flag blames the *script*, not one mutation."""
        fp = _fp(network=True, reads=("/srv",))
        verdict = may_depend(fp, WorldDelta(writes=("/srv/x",)))
        assert verdict.state == UNKNOWN

    def test_verdict_renders_and_serialises(self):
        verdict = Verdict(INVALID, ("invalidated-by:/srv/x",))
        assert str(verdict) == "invalid (invalidated-by:/srv/x)"
        assert verdict.to_json() == {"state": "invalid",
                                     "blame": ["invalidated-by:/srv/x"]}
        assert str(Verdict(VALID)) == "valid"


class TestSoundnessGate:
    def test_covered_touches_pass(self):
        fp = _fp(reads=("/home/alice/Documents",), writes=("<stdout>",))
        touched = (("read", "/home/alice/Documents/dog.jpg"),
                   ("read", "/home/alice/Documents"))
        assert soundness_escapes(fp, touched, home="/home/alice") == ()

    def test_escaping_touch_is_reported_with_its_kind(self):
        fp = _fp(reads=("/home/alice/Documents",))
        escapes = soundness_escapes(fp, (("write", "/etc/passwd"),))
        assert escapes == ("write:/etc/passwd",)

    def test_sentinel_touches_always_escape(self):
        fp = _fp(reads=("/",))
        assert soundness_escapes(fp, (("read", "<detached>"),)) == \
            ("read:<detached>",)

    def test_missing_footprint_escapes_everything(self):
        assert soundness_escapes(None, (("read", "/a"), ("exec", "/b"))) == \
            ("read:/a", "exec:/b")

    def test_home_expansion_matches_may_depend(self):
        fp = _fp(reads=("~/Documents",))
        touched = (("read", "/home/alice/Documents/x"),)
        assert soundness_escapes(fp, touched, home="/home/alice") == ()
        assert soundness_escapes(fp, touched, home="/home/bob") != ()


class TestWorldDeltaAnalyzer:
    def test_untouched_fork_is_clean(self):
        kernel = World().boot().kernel
        assert world_delta_between(kernel.fork(), kernel).clean

    def test_patched_file_yields_exactly_that_path(self):
        world = World().for_user("alice").with_jpeg_samples().boot()
        template = world.kernel
        fork = template.fork()
        from repro.world.image import WorldBuilder

        WorldBuilder(fork).write_file("/tmp/new.txt", b"x")
        delta = world_delta_between(fork, template)
        # /tmp pre-exists, so the write set is exactly the new file
        # (plus /tmp itself: its entry map changed).
        assert "/tmp/new.txt" in delta.writes
        assert all(prefixes_intersect(w, "/tmp") for w in delta.writes)
        assert not delta.config_mutation and not delta.watermark_drift

    def test_fresh_directory_collapses_to_its_prefix(self):
        world = World().boot()
        template = world.kernel
        fork = template.fork()
        from repro.world.image import WorldBuilder

        WorldBuilder(fork).write_file("/srv/depot/new.txt", b"x")
        delta = world_delta_between(fork, template)
        # A brand-new subtree reports the topmost added entry — a prefix
        # covering everything beneath it (conservative and O(1)).
        assert any(prefixes_intersect(w, "/srv/depot/new.txt")
                   for w in delta.writes)

    def test_process_spawn_is_watermark_drift(self):
        kernel = World().boot().kernel
        fork = kernel.fork()
        fork.spawn_process("root", "/")
        delta = world_delta_between(fork, kernel)
        assert delta.watermark_drift and not delta.clean

    def test_config_mutation_is_detected(self):
        kernel = World().boot().kernel
        fork = kernel.fork()
        proc = fork.spawn_process("root", "/")
        fork.sysctl.set(proc, "kern.hostname", "mutated")
        delta = world_delta_between(fork, kernel)
        assert delta.config_mutation
        assert delta.watermark_drift  # the spawn itself drifted the pids

    def test_world_delta_of_pristine_boot_is_clean(self):
        world = World().for_user("alice").with_jpeg_samples().boot()
        assert world_delta_of(world).clean

    def test_world_delta_of_patch_file(self):
        world = World().for_user("alice").with_jpeg_samples().boot()
        world.patch_file("/tmp/extra.txt", b"payload")
        delta = world_delta_of(world)
        assert "/tmp/extra.txt" in delta.writes
        assert not delta.watermark_drift
        assert not world.pristine

    def test_world_delta_of_unbooted_world_is_unknown(self):
        assert world_delta_of(World()).unknown
