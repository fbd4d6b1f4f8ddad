"""Tests of the package-level public API surface."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
import repro.des as des
import repro.markov as markov
import repro.queueing as queueing
import repro.simulator as simulator


class TestTopLevelExports:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_objects_are_importable(self):
        assert repro.GprsMarkovModel is not None
        assert repro.GprsModelParameters is not None
        assert repro.traffic_model(3).number == 3


#: Every package of the library; each declares its exports lazily.
PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
class TestSubpackageExports:
    def test_all_names_resolve(self, name):
        module = importlib.import_module(name)
        assert module.__all__, f"{name} exports nothing"
        listing = dir(module)
        for export in module.__all__:
            assert hasattr(module, export), f"{name}.{export}"
            assert export in listing, f"{name}.{export} missing from dir()"

    def test_star_import_binds_every_export(self, name):
        namespace: dict = {}
        exec(f"from {name} import *", namespace)
        assert set(importlib.import_module(name).__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self, name):
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(name), "no_such_export")

    def test_docstring_present(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 40


class TestDocstrings:
    def test_public_classes_have_docstrings(self):
        objects = [
            repro.GprsMarkovModel,
            repro.GprsModelParameters,
            repro.GprsStateSpace,
            repro.PacketSessionModel,
            simulator.GprsNetworkSimulator,
            simulator.SimulationConfig,
            des.SimulationEngine,
            des.Process,
            markov.ContinuousTimeMarkovChain,
            queueing.ErlangLossSystem,
        ]
        for obj in objects:
            assert obj.__doc__ and len(obj.__doc__.strip()) > 30, obj
