"""Tests shared across all five synthetic workload models."""

import numpy as np
import pytest

from repro.models import (
    DowneyModel,
    Feitelson96Model,
    Feitelson97Model,
    JannModel,
    LublinModel,
    WorkloadModel,
    create_model,
    MODEL_NAMES,
)
from repro.selfsim import binned_counts, periodogram

SIMPLE_MODELS = [Feitelson96Model, Feitelson97Model, DowneyModel, LublinModel]


@pytest.fixture(scope="module")
def jann_model(synthesized_ctc):
    return JannModel.fit(synthesized_ctc)


def model_instances(jann):
    return [cls() for cls in SIMPLE_MODELS] + [jann]


class TestModelContract:
    @pytest.mark.parametrize("cls", SIMPLE_MODELS)
    def test_stream_validity(self, cls):
        model = cls()
        w = model.generate(2000, seed=0)
        assert len(w) == 2000
        procs = w.column("used_procs")
        assert np.all(procs >= 1)
        assert np.all(procs <= model.machine_procs)
        assert np.all(w.column("run_time") >= 0)
        submit = w.column("submit_time")
        assert np.all(np.diff(submit) >= 0)  # sorted by submit
        assert submit[0] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("cls", SIMPLE_MODELS)
    def test_deterministic_under_seed(self, cls):
        a = cls().generate(500, seed=3)
        b = cls().generate(500, seed=3)
        assert np.array_equal(a.column("run_time"), b.column("run_time"))
        assert np.array_equal(a.column("submit_time"), b.column("submit_time"))

    @pytest.mark.parametrize("cls", SIMPLE_MODELS)
    def test_seeds_differ(self, cls):
        a = cls().generate(500, seed=1)
        b = cls().generate(500, seed=2)
        assert not np.array_equal(a.column("run_time"), b.column("run_time"))

    @pytest.mark.parametrize("cls", SIMPLE_MODELS)
    def test_machine_metadata(self, cls):
        model = cls(machine_procs=64)
        w = model.generate(200, seed=0)
        assert w.machine.processors == 64
        assert w.name == model.name

    @pytest.mark.parametrize("cls", SIMPLE_MODELS)
    def test_rejects_bad_args(self, cls):
        with pytest.raises(ValueError):
            cls(machine_procs=0)
        with pytest.raises(ValueError):
            cls().generate(0)

    @pytest.mark.parametrize("cls", SIMPLE_MODELS)
    def test_statistics_shortcut(self, cls):
        stats = cls().statistics(n_jobs=2000, seed=0)
        signs = stats.by_sign()
        for key in ("Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im", "Ii"):
            assert signs[key] > 0


class TestFeitelson:
    def test_power_of_two_emphasis(self):
        w = Feitelson96Model().generate(8000, seed=0)
        procs = w.column("used_procs")
        pow2 = (procs & (procs - 1)) == 0
        assert pow2.mean() > 0.5

    def test_97_stronger_pow2_emphasis(self):
        p96 = Feitelson96Model().generate(8000, seed=0).column("used_procs")
        p97 = Feitelson97Model().generate(8000, seed=0).column("used_procs")
        frac96 = ((p96 & (p96 - 1)) == 0).mean()
        frac97 = ((p97 & (p97 - 1)) == 0).mean()
        assert frac97 > frac96

    def test_size_runtime_correlation_positive(self):
        w = Feitelson96Model().generate(12000, seed=0)
        procs = w.column("used_procs").astype(float)
        run = w.column("run_time")
        corr = np.corrcoef(np.log(procs), np.log(run + 1))[0, 1]
        assert corr > 0.1

    def test_repetitions_share_size_and_runtime(self):
        w = Feitelson96Model().generate(4000, seed=0)
        execs = w.column("executable_id")
        run = w.column("run_time")
        procs = w.column("used_procs")
        for eid in np.unique(execs)[:50]:
            mask = execs == eid
            assert np.unique(run[mask]).size == 1
            assert np.unique(procs[mask]).size == 1

    def test_repetitions_back_to_back(self):
        """Pure model: a repeat is submitted when the previous run ends."""
        w = Feitelson96Model().generate(4000, seed=0)
        execs = w.column("executable_id")
        submit = w.column("submit_time")
        run = w.column("run_time")
        checked = 0
        for eid in np.unique(execs):
            idx = np.flatnonzero(execs == eid)
            if len(idx) < 2:
                continue
            times = np.sort(submit[idx])
            gap = np.diff(times)
            assert np.allclose(gap, run[idx[0]], rtol=1e-9)
            checked += 1
            if checked > 20:
                break
        assert checked > 0

    def test_repeat_counts_heavy_tailed(self):
        from repro.models.feitelson96 import repetition_distribution

        dist = repetition_distribution(order=2.5, max_repeats=64)
        assert float(dist.pdf(1.0)) > 0.7
        assert dist.mean() < 2.0

    def test_harmonic_sizes_monotone(self):
        from repro.models.feitelson96 import harmonic_pow2_sizes

        dist = harmonic_pow2_sizes(64)
        # Small non-pow2 sizes outweigh larger non-pow2 sizes.
        assert float(dist.pdf(3.0)) > float(dist.pdf(5.0))
        # Power-of-two boost: 4 outweighs 3 despite being larger.
        assert float(dist.pdf(4.0)) > float(dist.pdf(3.0))


class TestDowney:
    def test_runtime_times_procs_is_service(self):
        m = DowneyModel()
        w = m.generate(5000, seed=0)
        service = w.column("run_time") * w.column("used_procs")
        lo, hi = m.service.support()
        # Rounding of parallelism perturbs the product slightly.
        assert service.min() >= lo * 0.4
        assert service.max() <= hi * 2.6

    def test_sequential_fraction(self):
        m = DowneyModel(p_sequential=0.5)
        w = m.generate(8000, seed=0)
        assert (w.column("used_procs") == 1).mean() == pytest.approx(0.5, abs=0.03)

    def test_service_validation(self):
        with pytest.raises(ValueError, match="service"):
            DowneyModel(service_lo=10.0, service_knee=5.0, service_hi=100.0)

    def test_single_proc_machine(self):
        w = DowneyModel(machine_procs=1).generate(500, seed=0)
        assert np.all(w.column("used_procs") == 1)


class TestLublin:
    def test_serial_fraction(self):
        m = LublinModel(serial_prob=0.3)
        w = m.generate(8000, seed=0)
        assert (w.column("used_procs") == 1).mean() == pytest.approx(0.3, abs=0.03)

    def test_pow2_emphasis(self):
        w = LublinModel().generate(8000, seed=0)
        procs = w.column("used_procs")
        parallel = procs[procs > 1]
        pow2 = (parallel & (parallel - 1)) == 0
        assert pow2.mean() > 0.5

    def test_interarrival_median_on_target(self):
        m = LublinModel(median_interarrival=200.0, cycle_amplitude=0.0)
        w = m.generate(10000, seed=0)
        gaps = np.diff(w.column("submit_time"))
        assert np.median(gaps) == pytest.approx(200.0, rel=0.1)

    def test_daily_cycle_concentrates_arrivals(self):
        busy = LublinModel(cycle_amplitude=0.9, median_interarrival=30.0)
        flat = LublinModel(cycle_amplitude=0.0, median_interarrival=30.0)
        for model, expect_cycle in ((busy, True), (flat, False)):
            w = model.generate(20000, seed=0)
            hours = (w.column("submit_time") / 3600.0) % 24.0
            counts, _ = np.histogram(hours, bins=24)
            ratio = counts.max() / max(counts.min(), 1)
            if expect_cycle:
                assert ratio > 1.5
            else:
                assert ratio < 1.5

    @staticmethod
    def _peak_prominences(series):
        """``(period, prominence)`` of every local maximum of the
        periodogram, strongest first.  Prominence is the ordinate over the
        median of its 50 neighbours: the exponential ordinates of a
        cycle-free series reach ~ln(n)/ln(2) by chance, a cycle far more."""
        omega, per = periodogram(series)
        peaks = []
        for i in range(1, per.size - 1):
            if not (per[i] > per[i - 1] and per[i] >= per[i + 1]):
                continue
            lo = max(0, i - 25)
            baseline = np.median(np.delete(per[lo : i + 26], i - lo))
            if baseline > 0:
                peaks.append((2 * np.pi / omega[i], per[i] / baseline))
        return sorted(peaks, key=lambda peak: peak[1], reverse=True)

    def test_daily_cycle_is_the_strongest_peak(self):
        """The rush-hour cycle shows up at 24 hours in the hourly arrival
        counts, above every other periodogram peak."""
        w = LublinModel(cycle_amplitude=0.8, median_interarrival=40.0).generate(
            20000, seed=0
        )
        period, prominence = self._peak_prominences(binned_counts(w, 3600.0))[0]
        assert prominence >= 30.0
        assert period == pytest.approx(24.0, rel=0.05)

    def test_flat_cycle_has_no_peak(self):
        w = LublinModel(cycle_amplitude=0.0, median_interarrival=40.0).generate(
            20000, seed=0
        )
        peaks = self._peak_prominences(binned_counts(w, 3600.0))
        assert all(prominence < 30.0 for _, prominence in peaks)

    def test_size_runtime_correlation(self):
        w = LublinModel().generate(12000, seed=0)
        procs = w.column("used_procs").astype(float)
        run = w.column("run_time")
        assert np.corrcoef(np.log(procs + 1), np.log(run + 1))[0, 1] > 0.05

    def test_validation(self):
        with pytest.raises(ValueError, match="cycle_amplitude"):
            LublinModel(cycle_amplitude=1.5)
        with pytest.raises(ValueError, match="n_users"):
            LublinModel(n_users=0)


class TestJann:
    def test_fit_produces_valid_model(self, jann_model, synthesized_ctc):
        assert jann_model.machine_procs == synthesized_ctc.machine.processors
        assert len(jann_model.ranges) >= 3

    def test_generated_sizes_within_ranges(self, jann_model):
        w = jann_model.generate(3000, seed=0)
        procs = w.column("used_procs")
        legal = set()
        for r in jann_model.ranges:
            legal.update(range(r.lo, r.hi + 1))
        assert set(np.unique(procs)) <= legal

    def test_runtime_moments_tracked(self, jann_model, synthesized_ctc):
        """The fit matches three moments per range, so the overall mean
        runtime should be in the right ballpark."""
        w = jann_model.generate(20000, seed=0)
        ref = synthesized_ctc.column("run_time")
        got = w.column("run_time")
        assert got.mean() == pytest.approx(ref.mean(), rel=0.5)

    def test_range_probabilities_match_reference(self, jann_model, synthesized_ctc):
        w = jann_model.generate(20000, seed=0)
        ref_serial = (synthesized_ctc.column("used_procs") == 1).mean()
        got_serial = (w.column("used_procs") == 1).mean()
        assert got_serial == pytest.approx(ref_serial, abs=0.05)

    def test_power_of_two_ranges_structure(self):
        from repro.models.jann import power_of_two_ranges

        assert power_of_two_ranges(8) == [(1, 1), (2, 2), (3, 4), (5, 8)]
        assert power_of_two_ranges(10)[-1] == (9, 10)

    def test_fit_rejects_tiny_workload(self, small_machine):
        from repro.workload import Workload

        w = Workload.from_arrays(
            machine=small_machine, submit_time=[0.0, 1.0], run_time=[1.0, 2.0],
            used_procs=[1, 2],
        )
        with pytest.raises(ValueError, match="usable jobs"):
            JannModel.fit(w)

    def test_empty_ranges_rejected(self):
        from repro.stats.distributions import Exponential

        with pytest.raises(ValueError, match="at least one"):
            JannModel([], Exponential(1.0))


class TestJannDefault:
    """``JannModel.default`` fits once per integer seed in a process; the
    suite's autouse fixture empties that memo before each test."""

    @pytest.fixture
    def synthesized(self, monkeypatch):
        """Names ``default`` synthesizes, counted through the
        ``repro.archive`` attribute it imports."""
        import repro.archive

        names = []
        real = repro.archive.synthesize_workload

        def counting(name, **kwargs):
            names.append(name)
            return real(name, **kwargs)

        monkeypatch.setattr(repro.archive, "synthesize_workload", counting)
        return names

    def test_ctc_synthesized_once(self, synthesized):
        JannModel.default()
        JannModel.default()
        create_model("Jann")
        assert synthesized == ["CTC"]

    def test_generator_seed_is_not_cached(self, synthesized):
        JannModel.default(np.random.default_rng(7))
        JannModel.default(np.random.default_rng(7))
        assert synthesized == ["CTC", "CTC"]

    def test_each_call_builds_a_new_model(self):
        a = JannModel.default()
        b = JannModel.default()
        assert a is not b
        a.machine_procs = 1
        a.ranges.pop()
        a.ranges[0] = a.ranges[-1]
        c = JannModel.default()
        assert c.machine_procs == b.machine_procs > 1

        def bounds(model):
            return [(r.lo, r.hi, r.probability) for r in model.ranges]

        assert bounds(c) == bounds(b)
        assert len(c.ranges) == len(a.ranges) + 1

    def test_matches_a_fresh_fit(self):
        from repro.archive import synthesize_workload

        JannModel.default()
        shared = JannModel.default().generate(1000, seed=3)
        fresh = JannModel.fit(synthesize_workload("CTC", seed=7)).generate(1000, seed=3)
        for name in ("submit_time", "run_time", "used_procs", "wait_time"):
            np.testing.assert_array_equal(shared.column(name), fresh.column(name))


class TestRegistry:
    def test_names(self):
        assert MODEL_NAMES == ("Feitelson96", "Feitelson97", "Downey", "Jann", "Lublin")

    def test_create_each(self):
        for name in MODEL_NAMES:
            model = create_model(name)
            assert isinstance(model, WorkloadModel)
            assert model.name == name

    def test_create_model_uses_default_parameters(self):
        a = create_model("Lublin").generate(300, seed=5)
        b = LublinModel().generate(300, seed=5)
        for name in ("submit_time", "run_time", "used_procs", "user_id"):
            np.testing.assert_array_equal(a.column(name), b.column(name))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown model"):
            create_model("Mystery")

    def test_every_name_creates_its_model(self):
        assert [create_model(name).name for name in MODEL_NAMES] == list(MODEL_NAMES)
