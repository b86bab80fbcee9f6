"""Span lifecycle: nesting, ordering, dual time attribution."""

import pytest

from repro.observability import (
    NULL_SPAN,
    MetricsRegistry,
    Observation,
    Tracer,
    active_metrics,
    current_span,
    current_tracer,
    observe,
    span,
    suspended,
)


class TestNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        assert [root.name for root in tracer.roots] == ["outer"]
        assert [child.name for child in outer.children] == ["middle", "sibling"]
        assert [c.name for c in outer.children[0].children] == ["inner"]

    def test_walk_is_depth_first_preorder(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [s.name for s in tracer.walk()] == ["a", "b", "c", "d"]

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_span_ids_are_unique_and_parented(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        assert a.span_id != b.span_id
        assert b.parent_id == a.span_id
        assert a.parent_id is None

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (root,) = tracer.roots
        assert root.end_wall is not None
        # The stack unwound: a new span is a root, not a child of "doomed".
        with tracer.span("after"):
            pass
        assert [r.name for r in tracer.roots] == ["doomed", "after"]


class TestTimes:
    def test_wall_clock_is_monotone_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert outer.start_wall <= inner.start_wall
        assert inner.end_wall <= outer.end_wall
        assert outer.wall_seconds >= inner.wall_seconds >= 0

    def test_simulated_time_sums_over_subtree(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            parent.add_simulated_ms(1.0)
            with tracer.span("child") as child:
                child.add_simulated_ms(2.0)
        assert parent.sim_ms == 1.0
        assert parent.total_sim_ms == pytest.approx(3.0)
        assert tracer.total_sim_ms() == pytest.approx(3.0)

    def test_category_filtered_totals(self):
        tracer = Tracer()
        with tracer.span("algo", category="algorithm"):
            with tracer.span("k1", category="kernel") as k1:
                k1.add_simulated_ms(0.5)
            with tracer.span("k2", category="kernel") as k2:
                k2.add_simulated_ms(0.25)
        assert tracer.total_sim_ms("kernel") == pytest.approx(0.75)
        assert len(tracer.spans("kernel")) == 2
        assert tracer.total_sim_ms("algorithm") == 0.0


class TestContextVars:
    def test_module_span_is_null_when_disabled(self):
        assert current_tracer() is None
        with span("anything") as s:
            assert s is NULL_SPAN
            s.set(ignored=1)
            s.add_simulated_ms(5.0)

    def test_current_span_is_the_innermost_open_span(self):
        assert current_span() is NULL_SPAN
        with observe():
            assert current_span() is NULL_SPAN
            with span("outer") as outer:
                with span("inner") as inner:
                    current_span().set(annotated=True)
                assert current_span() is outer
        assert inner.attributes == {"annotated": True}

    def test_observe_activates_and_restores(self):
        tracer = Tracer()
        with observe(tracer=tracer):
            assert current_tracer() is tracer
            with span("recorded"):
                pass
        assert current_tracer() is None
        assert [root.name for root in tracer.roots] == ["recorded"]

    def test_suspended_hides_the_active_observation(self):
        observation = Observation(Tracer(), MetricsRegistry())
        with observation.activate():
            with span("outer"):
                with suspended():
                    assert current_tracer() is None
                    assert active_metrics() is None
                    with span("hidden"):
                        pass
                assert current_tracer() is observation.tracer
        names = [s.name for s in observation.tracer.walk()]
        assert "hidden" not in names
        assert names == ["outer"]

    def test_render_shows_the_tree(self):
        tracer = Tracer()
        with tracer.span("query", category="engine"):
            with tracer.span("kernel:sort", category="kernel") as k:
                k.add_simulated_ms(1.5)
        rendered = tracer.render()
        assert "query" in rendered
        assert "kernel:sort" in rendered
