"""Figures that more than one test module checks, computed once per session
with the parameters EXPERIMENTS.md reports."""

import pytest

from repro.graph.datasets import instantiate_dataset
from repro.perfmodel.poc import POC_SWEEP, poc_vcpu_equivalence, validate_model


@pytest.fixture(scope="session")
def fig14():
    return poc_vcpu_equivalence(max_nodes=8000, batch_size=96)


@pytest.fixture(scope="session")
def fig15():
    graph = instantiate_dataset("ls", max_nodes=8000, seed=0)
    return validate_model(graph, POC_SWEEP, batch_size=48)
