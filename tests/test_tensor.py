import numpy as np
import pytest

from bdrlab.balance import ce_with_offset
from bdrlab.tensor import Tensor, matmul, relu, value_and_grad
from bdrlab.training import distill_loss, teacher_targets
from bdrlab.verification import finite_diff_check


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_zero_case(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_adjoints(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        g = rng.standard_normal((3, 2))
        (matmul(a, b) * g).sum().backward()
        np.testing.assert_allclose(a.grad, g @ b.data.T, atol=1e-12)
        np.testing.assert_allclose(b.grad, a.data.T @ g, atol=1e-12)


class TestRelu:
    def test_definitional(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative_zero_adjoint(self):
        x = Tensor([-3.0, -1.0, -0.5], requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_positive_branch_gradient(self):
        x = Tensor([3.0], requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_gradient_at_exactly_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        relu(x).sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0])


class TestCeWithOffset:
    # the closed-form head: (loss, gradient at the logits)

    def test_uniform_softmax(self):
        loss, _ = ce_with_offset([[0.0, 0.0]], np.zeros(2), [0])
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_offset_changes_target_probability(self):
        loss, _ = ce_with_offset([[0.0, 0.0]], np.log([0.75, 0.25]), [0])
        assert loss == pytest.approx(-np.log(0.75), abs=1e-12)

    def test_constant_offset_is_invisible(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 3))
        y = np.array([0, 2, 1, 1])
        base, _ = ce_with_offset(z, np.zeros(3), y)
        shifted, _ = ce_with_offset(z, np.full(3, 17.5), y)
        assert abs(base - shifted) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="label 3"):
            ce_with_offset([[0.0, 0.0]], np.zeros(2), [3])

    def test_non_finite_logit(self):
        with pytest.raises(FloatingPointError):
            ce_with_offset([[np.inf, 0.0]], np.zeros(2), [0])

    def test_gradient_ignores_offsets(self):
        # offsets are constants; the gradient is taken at the logits only
        _, grad = ce_with_offset(np.array([[0.5, -0.2, 0.1]]), np.array([1.0, -2.0, 0.3]), [1])
        assert grad.shape == (1, 3)

    def test_strongly_negative_offsets_stay_finite(self):
        loss, grad = ce_with_offset([[0.0, 0.0]], np.array([0.0, -500.0]), [1])
        assert np.isfinite(loss) and np.all(np.isfinite(grad))


class TestBackward:
    def test_quadratic(self):
        theta = Tensor([3.0, 4.0], requires_grad=True)
        ((theta * theta).sum() * 0.5).backward()
        np.testing.assert_array_equal(theta.grad, [3.0, 4.0])

    def test_cross_entropy_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        offs = rng.standard_normal(4)
        labels = rng.integers(0, 4, 3)
        err = finite_diff_check(lambda x: ce_with_offset(x, offs, labels), rng.standard_normal((3, 4)))
        assert err < 1e-5

    def test_double_backward_accumulates(self):
        theta = Tensor([3.0, 4.0], requires_grad=True)
        loss = (theta * theta).sum() * 0.5
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(theta.grad, [6.0, 8.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_grad_shape_matches_everywhere(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        out = matmul(x, w)
        out.sum().backward()
        assert x.grad.shape == x.data.shape
        assert w.grad.shape == w.data.shape
        assert out.grad.shape == out.data.shape  # interior node participates too


class TestFiniteDiffCheck:
    def test_exact_for_quadratic(self):
        err = finite_diff_check(value_and_grad(lambda x: (x * x).sum() * 0.5), np.array([1.0, -2.0, 3.0]))
        assert err < 1e-7

    def test_cross_entropy_self_oracle(self):
        rng = np.random.default_rng(3)
        offs = rng.standard_normal(4)
        labels = rng.integers(0, 4, 3)
        err = finite_diff_check(
            lambda x: ce_with_offset(x, offs, labels),
            rng.standard_normal((3, 4)),
        )
        assert err < 1e-5

    def test_constant_function_scores_zero(self):
        err = finite_diff_check(value_and_grad(lambda x: (x * 0.0).sum()), np.array([1.0, 2.0]))
        assert err == 0.0

    def test_tape_function_must_return_a_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            finite_diff_check(value_and_grad(lambda x: x * 2.0), np.array([1.0, 2.0]))


def _first_columns(head, k):
    # a head applied to the first k columns, its gradient scattered back
    def f(x):
        value, grad = head(x[:, :k])
        full = np.zeros_like(x)
        full[:, :k] = grad
        return value, full

    return f


class TestGradientBattery:
    """The tape's ops and every closed-form loss head against central
    differences, many seeds."""

    def test_ops_over_many_random_instances(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(30):
            b, k, d = 3, 4, 5
            labels = rng.integers(0, k, b)
            offs = rng.standard_normal(k)
            wr = rng.standard_normal((d, k))
            mix = rng.standard_normal((b, k))
            teacher = rng.standard_normal((b, k))
            cases = [
                (rng.standard_normal((b, d)), value_and_grad(lambda x: (matmul(x, wr) * mix).sum())),
                (rng.standard_normal((b, k)) + 0.3, value_and_grad(lambda x: (relu(x) * mix).mean())),
                (rng.standard_normal((b, k)), lambda x: ce_with_offset(x, offs, labels)),
                (rng.standard_normal((b, k)), lambda x: distill_loss(x, teacher_targets(teacher, 1.0), 1.0, 1.0)),
                (rng.standard_normal((b, k + 1)), _first_columns(lambda x: ce_with_offset(x, offs, labels), k)),
            ]
            for value, fn in cases:
                worst = max(worst, finite_diff_check(fn, value))
        assert worst < 1e-5


class TestBinarySaturation:
    def test_closed_form_gradient(self):
        for gap in np.linspace(-20.0, 20.0, 81):
            _, grad = ce_with_offset(np.array([[gap, 0.0]]), np.zeros(2), np.array([0]))
            assert grad[0, 0] == pytest.approx(-1.0 / (1.0 + np.exp(gap)), abs=1e-10)

    def test_magnitude_strictly_decreasing_and_vanishing(self):
        mags = []
        for gap in np.linspace(-20.0, 20.0, 161):
            _, grad = ce_with_offset(np.array([[gap, 0.0]]), np.zeros(2), np.array([0]))
            mags.append(abs(grad[0, 0]))
        assert all(a > b for a, b in zip(mags, mags[1:]))
        assert mags[-1] < 1e-8
