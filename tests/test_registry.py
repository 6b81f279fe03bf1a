"""Typed index registry: specs, factory and config binding."""

from __future__ import annotations

import pytest

from repro import IndexSpec, PAPER_METHODS, create_index, get_spec, registered_methods
from repro.core.pmhl import PMHLIndex, PMHLSpec
from repro.core.postmhl import PostMHLIndex, PostMHLSpec
from repro.exceptions import IndexNotBuiltError
from repro.experiments.config import DEFAULT_CONFIG
from repro.graph.generators import grid_road_network
from repro.graph.updates import generate_update_batch
from repro.hierarchy.ch import CHIndex
from repro.labeling.h2h import H2HIndex
from repro.registry import experiment_methods, spec_class, spec_from_config
from repro.store.snapshot import graph_fingerprint

QUICK = DEFAULT_CONFIG.quick()


@pytest.fixture()
def graph():
    return grid_road_network(6, 6, seed=2)


class TestSpecs:
    def test_specs_are_frozen_and_typed(self):
        spec = PMHLSpec(num_partitions=8, seed=3)
        assert spec.num_partitions == 8
        with pytest.raises(Exception):  # dataclasses.FrozenInstanceError
            spec.num_partitions = 2

    def test_replace_returns_new_spec(self):
        spec = PostMHLSpec()
        other = spec.replace(bandwidth=20)
        assert other.bandwidth == 20
        assert spec.bandwidth == 12
        assert isinstance(other, PostMHLSpec)

    def test_replace_rejects_unknown_parameters(self):
        with pytest.raises(TypeError, match="no parameter"):
            PMHLSpec().replace(bandwidth=20)

    def test_get_spec_lookup_is_case_insensitive_with_aliases(self):
        assert isinstance(get_spec("pmhl"), PMHLSpec)
        assert spec_class("NCHP") is spec_class("N-CH-P")
        assert spec_class("ptdp") is spec_class("P-TD-P")

    def test_unknown_method_lists_known_names(self):
        with pytest.raises(ValueError, match="known methods"):
            get_spec("FancyIndex")

    def test_unknown_parameter_lists_accepted_names(self):
        with pytest.raises(TypeError, match="accepted"):
            get_spec("PMHL", bandwidth=3)


class TestCreateIndex:
    def test_from_name_with_overrides(self, graph):
        index = create_index("PMHL", graph, num_partitions=2, seed=5)
        assert isinstance(index, PMHLIndex)
        assert index.num_partitions == 2
        assert index.seed == 5
        assert not index.is_built

    def test_from_spec_instance(self, graph):
        spec = PostMHLSpec(bandwidth=8, expected_partitions=2)
        index = create_index(spec, graph)
        assert isinstance(index, PostMHLIndex)
        assert index.bandwidth == 8

    def test_from_spec_with_overrides(self, graph):
        index = create_index(PostMHLSpec(), graph, bandwidth=9)
        assert index.bandwidth == 9

    def test_every_registered_method_constructs_and_builds(self, graph):
        for name in registered_methods():
            index = create_index(name, graph.copy())
            index.build()
            assert index.is_built
            assert index.name == name

    def test_registry_exposes_spec_base(self):
        for name in registered_methods():
            assert issubclass(spec_class(name), IndexSpec)


class TestApplyBatchRefusals:
    """``apply_batch`` refuses before U-Stage 1 writes anything."""

    @staticmethod
    def _refuses(index, error):
        graph = index.graph
        batch = generate_update_batch(graph, 5, seed=1)
        before, version = graph_fingerprint(graph), graph.version
        with pytest.raises(error):
            index.apply_batch(batch)
        assert graph_fingerprint(graph) == before
        assert graph.version == version

    @pytest.mark.parametrize(
        "method", [name for name in registered_methods() if name != "BiDijkstra"]
    )
    def test_unbuilt_index_refuses_with_the_graph_untouched(self, graph, method):
        self._refuses(create_index(method, graph), IndexNotBuiltError)

    @pytest.mark.parametrize("index_cls", [CHIndex, H2HIndex])
    @pytest.mark.parametrize("built", [False, True])
    def test_static_index_refuses_with_the_graph_untouched(self, graph, index_cls, built):
        index = index_cls(graph)
        if built:
            index.build()
        self._refuses(index, NotImplementedError)


class TestConfigBinding:
    def test_spec_from_config_maps_experiment_knobs(self):
        spec = spec_from_config("PMHL", QUICK)
        assert spec.num_partitions == QUICK.partition_number
        assert spec.seed == QUICK.seed
        spec = spec_from_config("PostMHL", QUICK)
        assert spec.bandwidth == QUICK.bandwidth
        assert spec.expected_partitions == QUICK.expected_partitions
        spec = spec_from_config("TOAIN", QUICK)
        assert spec.checkin_fraction == QUICK.toain_checkin_fraction

    def test_paper_methods_order(self):
        assert experiment_methods() == list(PAPER_METHODS)
        assert PAPER_METHODS[0] == "BiDijkstra"
        assert PAPER_METHODS[-1] == "PostMHL"
        assert set(PAPER_METHODS) <= set(registered_methods())
