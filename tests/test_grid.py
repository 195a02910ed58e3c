import math
import tracemalloc
import warnings

import numpy as np
import pytest

from dcollapse.model import ModelParams
from dcollapse import gaussian as ge
from dcollapse import grid as gr
from dcollapse import localization as lo
from dcollapse import master as ms

import reference_closed_forms as rcf
import reference_kernel

FREE = ModelParams(mass=1.0, collapse_rate=0.0, momentum_coupling=0.5,
                   hbar=1.0)


def initial_record(psi, grid, p):
    """The t = 0 record of a single state, as a field -> value dict."""
    _, recs, _, _ = gr.evolve_batch(psi, grid, p, 0.01, 0, np.zeros((1, 0)),
                                    record_every=1)
    return dict(zip(gr.RECORD_FIELDS, recs[0, 0]))


@pytest.fixture(scope="module")
def grid():
    return gr.Grid(-16.0, 16.0, 256)


@pytest.fixture(scope="module")
def packet(d_nat):
    return ge.GaussianState(a=complex(d_nat.a_inf) * 1.3 + 0.1j, xbar=1.5,
                            kbar=-0.7)


class TestGrid:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gr.Grid(-1.0, 1.0, 100)
        with pytest.raises(ValueError):
            gr.Grid(-1.0, 1.0, 32)
        with pytest.raises(ValueError):
            gr.Grid(1.0, -1.0, 128)

    def test_geometry(self, grid):
        assert grid.dx == pytest.approx(32.0 / 256)
        assert grid.x[0] == -16.0
        assert grid.x[-1] == pytest.approx(16.0 - grid.dx)
        assert np.max(np.abs(grid.k)) == pytest.approx(math.pi / grid.dx)

    def test_norm_of_built_gaussian(self, grid):
        psi = gr.build_gaussian(grid, ge.GaussianState(a=0.8 + 0.3j,
                                                       xbar=-0.4, kbar=0.6))
        assert float(gr.grid_norm_sq(psi, grid)) == pytest.approx(1.0,
                                                                  rel=1e-12)


class TestNoiseStream:
    def test_golden_values(self):
        inc = gr.NoiseStream(2025, 0).increments(4, 0.01)
        want = [0.018509178313663204, 0.007285301907803872,
                0.058944444930396835, -0.013027905689394818]
        assert np.allclose(inc, want, rtol=0, atol=0)
        first = gr.NoiseStream(2025, 1).increments(1, 0.01)[0]
        assert first == -0.13187259619668681

    def test_deterministic_per_pair(self):
        one = gr.NoiseStream(11, 3).increments(16, 0.02)
        two = gr.NoiseStream(11, 3).increments(16, 0.02)
        assert np.array_equal(one, two)

    def test_index_and_seed_change_the_draws(self):
        base = gr.NoiseStream(11, 3).increments(16, 0.02)
        assert not np.array_equal(base, gr.NoiseStream(11, 4).increments(16, 0.02))
        assert not np.array_equal(base, gr.NoiseStream(12, 3).increments(16, 0.02))

    def test_same_normals_under_dt_rescale(self):
        a = gr.NoiseStream(5, 0).increments(8, 0.01)
        b = gr.NoiseStream(5, 0).increments(8, 0.04)
        assert np.allclose(b, 2.0 * a, rtol=1e-15, atol=0)


class TestMoments:
    def test_match_closed_forms_spectrally(self, grid, p_nat):
        g = ge.GaussianState(a=0.8 + 0.3j, xbar=-0.4, kbar=0.6)
        psi = gr.build_gaussian(grid, g)
        rec = initial_record(psi, grid, p_nat)
        tr = ge.spreads(g.a, p_nat)
        assert rec["q_mean"] == pytest.approx(g.xbar, abs=1e-10)
        assert rec["p_mean"] == pytest.approx(p_nat.hbar * g.kbar, abs=1e-10)
        assert rec["sigma_q_sq"] == pytest.approx(tr.sigma_q ** 2, rel=1e-9)
        assert rec["sigma_p_sq"] == pytest.approx(tr.sigma_p ** 2, rel=1e-9)
        assert rec["sigma_qp_sq"] == pytest.approx(tr.sigma_qp_sq, rel=1e-9)
        assert rec["energy"] == pytest.approx(ms.energy_from_coefficients(
            ms.coefficients_from_gaussian(g, p_nat), p_nat), rel=1e-9)
        assert rec["norm_sq"] == pytest.approx(1.0, rel=1e-12)

    def test_sigma_O_agrees_with_moment_formula(self, grid, p_nat, d_nat):
        # the recorded variance is localization's formula of the record's
        # own spreads, bit for bit, and the pure-state value
        for a in (0.8 + 0.3j, 0.4 - 0.5j, complex(d_nat.a_inf)):
            g = ge.GaussianState(a=a, xbar=0.7, kbar=-0.2)
            psi = gr.build_gaussian(grid, g)
            rec = initial_record(psi, grid, p_nat)
            via_moments = lo.sigma_O_sq(rec["sigma_q_sq"], rec["sigma_p_sq"],
                                        rec["sigma_qp_sq"], p_nat)
            pure = 4.0 * p_nat.hbar ** 2 * abs(a - complex(d_nat.a_inf)) ** 2 \
                * rec["sigma_q_sq"]
            assert rec["sigma_O_sq"] == via_moments
            assert rec["sigma_O_sq"] == pytest.approx(pure, rel=1e-8,
                                                      abs=1e-10)
        # at lam = 0 there is no stationary width, and O is p itself
        psi = gr.build_gaussian(grid, ge.GaussianState(a=0.8 + 0.3j))
        rec = initial_record(psi, grid, FREE)
        assert math.isfinite(rec["sigma_O_sq"])
        assert rec["sigma_O_sq"] == rec["sigma_p_sq"]

    def test_normalization_is_divided_out(self, grid, p_nat):
        g = ge.GaussianState(a=0.8 + 0.3j, xbar=-0.4, kbar=0.6)
        psi = gr.build_gaussian(grid, g)
        one = initial_record(psi, grid, p_nat)
        two = initial_record(3.7 * psi, grid, p_nat)
        assert two["q_mean"] == pytest.approx(one["q_mean"], abs=1e-12)
        assert two["sigma_p_sq"] == pytest.approx(one["sigma_p_sq"],
                                                  rel=1e-12)
        assert two["norm_sq"] == pytest.approx(3.7 ** 2, rel=1e-12)


class TestSuperposition:
    def test_weights_set_interval_probabilities(self, grid, p_nat):
        psi = gr.build_superposition(grid, 2.0 + 0.0j, (-5.0, 5.0),
                                     (0.3, 0.7))
        assert float(gr.grid_norm_sq(psi, grid)) == pytest.approx(1.0,
                                                                  rel=1e-12)
        prob = np.abs(psi) ** 2 * grid.dx
        right = float(prob[grid.x > 0.0].sum())
        assert right == pytest.approx(0.7, abs=1e-9)
        rec = initial_record(psi, grid, p_nat)
        assert rec["q_mean"] == pytest.approx(0.3 * -5.0 + 0.7 * 5.0,
                                              abs=1e-6)

    def test_kbars_set_branch_momenta(self, grid, p_nat):
        psi = gr.build_superposition(grid, 2.0 + 0.0j, (-5.0, 5.0),
                                     (0.3, 0.7), kbars=(1.0, -2.0))
        rec = initial_record(psi, grid, p_nat)
        want = p_nat.hbar * (0.3 * 1.0 + 0.7 * -2.0)
        assert rec["p_mean"] == pytest.approx(want, abs=1e-6)


class TestFreeEvolution:
    def test_exact_propagation(self, grid):
        g0 = ge.GaussianState(a=0.7 + 0.0j, xbar=-3.0, kbar=2.0)
        psi0 = gr.build_gaussian(grid, g0)
        T, n_steps = 1.5, 30
        times, recs, psi, aborted = gr.evolve_batch(
            psi0, grid, FREE, T / n_steps, n_steps,
            np.zeros((1, n_steps)), equation="linear", record_every=5)
        assert not aborted[0]
        want = rcf.wavefunction(rcf.free_evolve(g0, T, FREE), grid.x)
        ov = np.vdot(want, psi[0]) * grid.dx
        assert abs(ov) == pytest.approx(1.0, abs=1e-10)
        phase = ov / abs(ov)
        assert np.max(np.abs(psi[0] - phase * want)) < 1e-7
        # recorded width path equals the closed free-spreading law
        a_t = ge.a_closed_form(g0.a, times, FREE)
        got = recs[:, 0, gr.RECORD_FIELDS.index("sigma_q_sq")]
        assert np.max(np.abs(got - 0.25 / a_t.real)) < 1e-9
        norms = recs[:, 0, gr.RECORD_FIELDS.index("norm_sq")]
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestPathwiseWidths:
    def test_track_closed_form_and_converge(self, grid, p_nat, packet):
        psi0 = gr.build_gaussian(grid, packet)
        iq = gr.RECORD_FIELDS.index("sigma_q_sq")
        ip = gr.RECORD_FIELDS.index("sigma_p_sq")
        iqp = gr.RECORD_FIELDS.index("sigma_qp_sq")
        errs = {}
        for dt, n_steps in ((0.02, 50), (0.005, 200)):
            inc = gr.NoiseStream(42, 3).increments(n_steps, dt)
            times, recs, _, aborted = gr.evolve_batch(
                psi0, grid, p_nat, dt, n_steps, inc[None, :],
                equation="nonlinear", record_every=5)
            assert not aborted[0]
            a_t = ge.a_closed_form(packet.a, times, p_nat)
            q_err = np.max(np.abs(recs[:, 0, iq] / (0.25 / a_t.real) - 1.0))
            want_p = p_nat.hbar ** 2 * np.abs(a_t) ** 2 / a_t.real
            p_err = np.max(np.abs(recs[:, 0, ip] / want_p - 1.0))
            want_qp = -0.5 * p_nat.hbar * a_t.imag / a_t.real
            qp_err = np.max(np.abs(recs[:, 0, iqp] - want_qp))
            errs[dt] = q_err
            if dt == 0.005:
                assert q_err < 0.04
                assert p_err < 0.03
                assert qp_err < 0.01
        # the width flow is noise-independent, so refining dt must help
        assert errs[0.005] < errs[0.02]

    def test_means_match_reduced_dynamics(self, grid, p_nat, packet):
        # same Brownian increments through the full PDE and through the
        # closed mean/width recursion
        n_steps, dt = 200, 0.005
        psi0 = gr.build_gaussian(grid, packet)
        inc = gr.NoiseStream(99, 0).increments(n_steps, dt)
        t_grid = np.arange(n_steps + 1) * dt
        xs, ks = rcf.simulate_means(packet.a, packet.xbar, packet.kbar,
                                    t_grid, p_nat, inc[:, None])
        times, recs, _, aborted = gr.evolve_batch(
            psi0, grid, p_nat, dt, n_steps, inc[None, :],
            equation="nonlinear", record_every=10)
        assert not aborted[0]
        idx = np.rint(times / dt).astype(int)
        qm = recs[:, 0, gr.RECORD_FIELDS.index("q_mean")]
        pm = recs[:, 0, gr.RECORD_FIELDS.index("p_mean")]
        assert np.max(np.abs(qm - xs[idx, 0])) < 0.03
        assert np.max(np.abs(pm - p_nat.hbar * ks[idx, 0])) < 0.03


class TestMartingale:
    def test_linear_norm_is_conserved_in_mean(self, grid, p_nat, packet):
        B, n_steps, dt = 2000, 50, 0.01
        psi0 = np.broadcast_to(gr.build_gaussian(grid, packet),
                               (B, grid.n)).copy()
        rng = np.random.default_rng(1234)
        inc = rng.standard_normal((B, n_steps)) * math.sqrt(dt)
        _, recs, _, aborted = gr.evolve_batch(
            psi0, grid, p_nat, dt, n_steps, inc, equation="linear",
            record_every=n_steps)
        assert not aborted.any()
        n2 = recs[-1, :, gr.RECORD_FIELDS.index("norm_sq")]
        se = n2.std(ddof=1) / math.sqrt(B)
        assert abs(float(n2.mean()) - 1.0) < 4.0 * se

    def test_nonlinear_records_unit_norm(self, grid, p_nat, packet):
        psi0 = gr.build_gaussian(grid, packet)
        inc = gr.NoiseStream(3, 0).increments(20, 0.01)
        _, recs, _, _ = gr.evolve_batch(psi0, grid, p_nat, 0.01, 20,
                                        inc[None, :], equation="nonlinear",
                                        record_every=5)
        norms = recs[:, 0, gr.RECORD_FIELDS.index("norm_sq")]
        assert np.max(np.abs(norms - 1.0)) < 1e-12


class TestNoiseShiftEquivalence:
    def test_linear_step_with_shifted_noise(self, grid, p_nat, packet):
        # the physical step equals the linear step driven by the mean-shifted
        # increment, after renormalization and up to the O(dt) difference of
        # the two discretizations
        psi0 = gr.build_gaussian(grid, packet)
        r = initial_record(psi0, grid, p_nat)["q_mean"]
        root = math.sqrt(p_nat.collapse_rate)

        def one_step(equation, dxi, dt):
            _, _, psi, _ = gr.evolve_batch(psi0, grid, p_nat, dt, 1,
                                           np.array([[dxi]]),
                                           equation=equation, record_every=1)
            return psi[0]

        def one_step_diff(z, dt, sign):
            dW = z * math.sqrt(dt)
            ns = one_step("nonlinear", dW, dt)
            ls = one_step("linear", dW + sign * 2.0 * root * r * dt, dt)
            psl = ls / math.sqrt(float(gr.grid_norm_sq(ls, grid)))
            ov = np.vdot(psl, ns) * grid.dx
            phase = ov / abs(ov)
            return math.sqrt(float(
                np.sum(np.abs(ns - phase * psl) ** 2) * grid.dx))

        for z in (0.3, 2.0, -1.5):
            good = {dt: one_step_diff(z, dt, +1.0) for dt in (0.02, 0.005)}
            bad = one_step_diff(z, 0.02, -1.0)
            assert good[0.02] < 1e-2
            assert bad > 2.0 * good[0.02]
            ratio = good[0.02] / good[0.005]
            assert 2.0 < ratio < 7.5


class TestGuards:
    def test_aliased_state_flags_abort(self, grid, p_nat):
        psi = gr.build_gaussian(grid, ge.GaussianState(a=0.7, xbar=0.0,
                                                       kbar=0.0))
        hot = psi * np.exp(1j * 0.8 * math.pi / grid.dx * grid.x)
        inc = np.zeros((1, 2))
        _, _, _, aborted = gr.evolve_batch(hot, grid, p_nat, 0.01, 2, inc,
                                           equation="nonlinear",
                                           record_every=1)
        assert aborted[0]

    def test_boundary_leak_flags_abort(self, grid, p_nat):
        near_edge = ge.GaussianState(a=0.7, xbar=15.0, kbar=0.0)
        psi = gr.build_gaussian(grid, near_edge)
        inc = np.zeros((1, 2))
        _, _, _, aborted = gr.evolve_batch(psi, grid, p_nat, 0.01, 2, inc,
                                           equation="nonlinear",
                                           record_every=1)
        assert aborted[0]

    def test_linear_batch_flags_blowup(self, grid, p_nat, packet):
        # a flagged row is not integrated on into an overflow: no numpy
        # warning however long the run goes on after the flag
        psi0 = gr.build_gaussian(grid, packet)
        for n_steps in (2, 200):
            inc = np.full((1, n_steps), 50.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, _, _, aborted = gr.evolve_batch(
                    psi0, grid, p_nat, 0.01, n_steps, inc, equation="linear",
                    record_every=1)
            assert aborted[0]

    def test_norm_loss_flags_abort(self, grid, p_nat, packet):
        # an underflowed or zero norm gives NaN moments and an abort, and no
        # numpy overflow or invalid-value warnings; below about 1e-170
        # |psi|^2 underflows to 0, and the recorded norm must stay 0, not NaN
        psi = gr.build_gaussian(grid, packet)
        for amp in (1e-160, 1e-200, 0.0):
            for equation in ("nonlinear", "linear"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    _, recs, _, aborted = gr.evolve_batch(
                        amp * psi, grid, p_nat, 0.01, 2,
                        np.full((1, 2), 0.01), equation=equation,
                        record_every=1)
                assert aborted[0]
                assert np.isnan(recs[:, 0, 1:-1]).all()
                if amp == 1e-160:
                    assert (recs[:, 0, -1] > 0.0).all()
                else:
                    assert (recs[:, 0, -1] == 0.0).all()

    def test_leak_at_an_intermediate_record_flags_its_row_alone(self):
        # free motion carries the first packet across the periodic edge at
        # x = 40 and on to x = -20 by the end, clear of both edges at the
        # first and last records; only a record in between sees it leak
        box = gr.Grid(-40.0, 40.0, 1024)
        mover = gr.build_gaussian(box, ge.GaussianState(a=0.0625, xbar=20.0,
                                                        kbar=20.0))
        still = gr.build_gaussian(box, ge.GaussianState(a=0.0625, xbar=0.0,
                                                        kbar=0.0))
        psi0 = np.stack([mover, still])
        qm = gr.RECORD_FIELDS.index("q_mean")
        for every, want in ((200, [False, False]), (100, [True, False])):
            _, recs, _, aborted = gr.evolve_batch(
                psi0, box, FREE, 0.01, 200, np.zeros((2, 200)),
                record_every=every)
            assert aborted.tolist() == want
            assert recs[0, 0, qm] == pytest.approx(20.0, abs=1e-9)
            assert recs[-1, 0, qm] == pytest.approx(-20.0, abs=1e-9)

    @pytest.mark.parametrize("amp", [1e-130, 1e120])
    def test_scaled_input_gives_the_normalised_records(self, grid, p_nat,
                                                       packet, amp):
        # with one record at each end, a nonlinear row far from unit norm
        # (but above the underflow floor) is renormalised by its first step
        # and then follows the normalised input
        psi = gr.build_gaussian(grid, packet)
        inc = gr.NoiseStream(6, 0).increments(40, 0.01)[None, :]
        run = dict(equation="nonlinear", record_every=40)
        _, want, want_psi, want_aborted = gr.evolve_batch(
            psi, grid, p_nat, 0.01, 40, inc, **run)
        _, recs, final, aborted = gr.evolve_batch(
            amp * psi, grid, p_nat, 0.01, 40, inc, **run)
        assert not want_aborted[0] and not aborted[0]
        assert np.max(np.abs(recs[1:] - want[1:])) < 1e-13
        assert np.max(np.abs(final - want_psi)) < 1e-13
        assert recs[0, 0, -1] == pytest.approx(amp ** 2, rel=1e-12, abs=0.0)
        assert np.max(np.abs(recs[0, 0, 1:-1] - want[0, 0, 1:-1])) < 1e-13

    @pytest.mark.parametrize("equation", ["nonlinear", "linear"])
    def test_nonfinite_row_aborts_alone(self, grid, p_nat, packet,
                                        equation):
        good = gr.build_gaussian(grid, packet)
        bad = good.copy()
        bad[100] = np.nan
        inc = np.stack([gr.NoiseStream(8, i).increments(12, 0.01)
                        for i in range(2)])
        run = dict(equation=equation, record_every=4)
        _, recs, psi, aborted = gr.evolve_batch(
            np.stack([good, bad]), grid, p_nat, 0.01, 12, inc, **run)
        _, recs1, psi1, aborted1 = gr.evolve_batch(
            good, grid, p_nat, 0.01, 12, inc[:1], **run)
        assert aborted.tolist() == [False, True]
        assert not aborted1[0]
        assert np.array_equal(recs[:, :1], recs1)
        assert np.array_equal(psi[:1], psi1)

    def test_increment_shape_guard(self, grid, p_nat, packet):
        psi0 = gr.build_gaussian(grid, packet)
        with pytest.raises(ValueError):
            gr.evolve_batch(psi0, grid, p_nat, 0.01, 10,
                            np.zeros((10, 1)), equation="nonlinear")

    def test_equation_name_guard(self, grid, p_nat, packet):
        psi0 = gr.build_gaussian(grid, packet)
        with pytest.raises(ValueError):
            gr.evolve_batch(psi0, grid, p_nat, 0.01, 2, np.zeros((1, 2)),
                            equation="typo")


class TestBuffers:
    @pytest.mark.parametrize("equation", ["nonlinear", "linear"])
    def test_inputs_kept_and_outputs_owned(self, grid, p_nat, packet,
                                           equation):
        psi0 = np.stack([gr.build_gaussian(grid, packet)] * 3)
        inc = np.stack([gr.NoiseStream(4, i).increments(9, 0.01)
                        for i in range(3)])
        psi0_before, inc_before = psi0.copy(), inc.copy()
        run = dict(equation=equation, record_every=4)
        first = gr.evolve_batch(psi0, grid, p_nat, 0.01, 9, inc, **run)
        second = gr.evolve_batch(psi0, grid, p_nat, 0.01, 9, inc, **run)
        assert np.array_equal(psi0, psi0_before)
        assert np.array_equal(inc, inc_before)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
            assert not np.shares_memory(a, b)
            assert not np.shares_memory(a, psi0)
            assert not np.shares_memory(a, inc)
        kept = [b.copy() for b in second]
        for a in first:
            a[...] = np.nan if a.dtype.kind in "fc" else True
        for b, want in zip(second, kept):
            assert np.array_equal(b, want)


    def test_holds_no_copy_of_the_increments(self, p_nat, packet):
        # one long call with records only at the ends: besides its inputs
        # it holds its (B, n) work buffers, about 8 kB a row here, where a
        # scaled copy of the increments would be another 1x of them
        small = gr.Grid(-16.0, 16.0, 64)
        n_batch, n_steps, dt = 32, 3000, 0.0005
        psi0 = np.broadcast_to(gr.build_gaussian(small, packet),
                               (n_batch, small.n)).copy()
        inc = np.stack([gr.NoiseStream(8, i).increments(n_steps, dt)
                        for i in range(n_batch)])
        # numpy imports its fft module on first use; keep that out
        gr.evolve_batch(psi0, small, p_nat, dt, 1, inc[:, :1])
        tracemalloc.start()
        try:
            _, _, _, aborted = gr.evolve_batch(psi0, small, p_nat, dt,
                                               n_steps, inc,
                                               record_every=n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not aborted.any()
        assert peak < 0.5 * inc.nbytes


class TestRecordSteps:
    def test_record_grid_includes_endpoint(self, grid, p_nat, packet):
        assert gr.record_steps(7, 3) == [0, 3, 6, 7]
        assert gr.record_steps(6, 3) == [0, 3, 6]
        psi0 = gr.build_gaussian(grid, packet)
        inc = gr.NoiseStream(1, 0).increments(7, 0.01)[None, :]
        times, recs, _, _ = gr.evolve_batch(psi0, grid, p_nat, 0.01, 7, inc,
                                            record_every=3)
        assert np.allclose(times, [0.0, 0.03, 0.06, 0.07], atol=1e-12)
        assert np.array_equal(recs[:, 0, gr.RECORD_FIELDS.index("t")], times)

    def test_time_column_is_record_steps_times_dt(self, grid, p_nat, packet):
        # exactly the product, not a running sum: 3 * 0.1 is not 0.3
        psi0 = np.stack([gr.build_gaussian(grid, packet)] * 3)
        inc = np.zeros((3, 7))
        times, recs, _, _ = gr.evolve_batch(psi0, grid, p_nat, 0.1, 7, inc,
                                            record_every=3)
        want = np.asarray(gr.record_steps(7, 3)) * 0.1
        assert np.array_equal(times, want)
        assert np.array_equal(recs[:, :, gr.RECORD_FIELDS.index("t")],
                              np.repeat(want[:, None], 3, axis=1))


class TestReferenceKernel:
    @staticmethod
    def check_matches(psi0, grid, p, d, dt, n_steps, every, equation):
        """evolve_batch against the position-space kernel: the same times,
        and records and final states within 1e-12."""
        inc = np.stack([gr.NoiseStream(17, i).increments(n_steps, dt)
                        for i in range(len(psi0))])
        times, recs, psi, aborted = gr.evolve_batch(
            psi0, grid, p, dt, n_steps, inc, equation=equation,
            record_every=every)
        want_t, want_recs, want_psi = reference_kernel.evolve(
            psi0, grid, p, dt, n_steps, inc, equation, every, d.a_inf)
        assert not aborted.any()
        assert np.array_equal(times, want_t)
        assert np.max(np.abs(recs - want_recs)) < 1e-12
        assert np.max(np.abs(psi - want_psi)) < 1e-12

    @pytest.mark.parametrize("equation", ["nonlinear", "linear"])
    @pytest.mark.parametrize("n_batch", [1, 32])
    def test_matches_position_space_kernel(self, grid, p_nat, d_nat, packet,
                                           equation, n_batch):
        psi0 = np.broadcast_to(gr.build_gaussian(grid, packet),
                               (n_batch, grid.n)).copy()
        self.check_matches(psi0, grid, p_nat, d_nat, 0.01, 100, 10,
                           equation)

    @pytest.mark.parametrize("equation", ["nonlinear", "linear"])
    @pytest.mark.parametrize("n_batch", [1, 4])
    def test_matches_on_dense_two_packet_records(self, p_nat, d_nat,
                                                 equation, n_batch):
        # the shape of the dense-record benchmark: two packets at n = 512,
        # a record after every step
        wide = gr.Grid(-24.0, 24.0, 512)
        one = gr.build_superposition(wide, complex(d_nat.a_inf),
                                     (-5.0, 5.0), (0.3, 0.7))
        psi0 = np.broadcast_to(one, (n_batch, wide.n)).copy()
        self.check_matches(psi0, wide, p_nat, d_nat, 0.005, 60, 1, equation)

    @pytest.mark.parametrize("equation", ["nonlinear", "linear"])
    def test_fft_calls_per_step_and_record(self, grid, p_nat, packet,
                                           equation, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
        psi0 = np.broadcast_to(gr.build_gaussian(grid, packet),
                               (4, grid.n)).copy()
        inc = np.zeros((4, 10))
        for every, n_records in ((10, 2), (1, 11)):
            calls.clear()
            gr.evolve_batch(psi0, grid, p_nat, 0.01, 10, inc,
                            equation=equation, record_every=every)
            assert len(calls) == 3 * 10 + 2 * n_records
