"""The package's public surface: imports, __all__, and the top-level
convenience entry point."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_mpeg4_convenience_builder(self):
        app = repro.mpeg4_encoder_application(macroblocks=5)
        assert app.iterations == 5
        assert len(app.body) == 9
        assert app.quality_set.qmax == 7

    def test_quickstart_docstring_flow(self):
        """The flow advertised in the package docstring actually works."""
        app = repro.mpeg4_encoder_application(macroblocks=60)
        system = app.system(budget=12_000_000)
        controller = repro.TableDrivenController(system)
        result = controller.run_cycle(
            lambda action, q: system.average_times.time(action, q)
        )
        assert result.total_time <= 12_000_000


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.platform",
        "repro.video",
        "repro.video.pixel",
        "repro.sim",
        "repro.streams",
        "repro.cluster",
        "repro.serving",
        "repro.sla",
        "repro.baselines",
        "repro.tool",
        "repro.analysis",
        "repro.experiments",
        "repro.obs",
        "repro.engine",
        "repro.horizon",
    ],
)
def test_subpackage_all_exports_resolve(module):
    imported = importlib.import_module(module)
    exported = getattr(imported, "__all__", [])
    assert exported, f"{module} should declare __all__"
    for name in exported:
        assert hasattr(imported, name), f"{module}.{name}"


class TestRunnerCaching:
    def test_same_config_returns_cached_result(self):
        from repro.experiments.configs import tiny_config
        from repro.sim.runner import run_constant, run_controlled

        config = tiny_config(frames=20)
        first = run_controlled(config)
        second = run_controlled(config)
        assert first is second  # cached: identical object
        assert run_constant(2, config) is run_constant(2, config)

    def test_different_parameters_not_conflated(self):
        from repro.experiments.configs import tiny_config
        from repro.sim.runner import run_controlled

        config = tiny_config(frames=20)
        fine = run_controlled(config, granularity=1)
        coarse = run_controlled(config, granularity=50)
        assert fine is not coarse
