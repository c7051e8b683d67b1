"""Linear models: multinomial logistic regression and ridge regression.

LogisticRegression minimizes L2-regularized softmax cross-entropy with
L-BFGS (scipy), matching the behaviour of sklearn's default solver that the
paper used.  The ``C`` parameter follows sklearn's convention (inverse
regularization strength; the paper's grid is C in {1e-3 ... 1e3}).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import (
    BaseEstimator,
    ClassifierMixin,
    RegressorMixin,
    check_array,
    check_X_y,
)
from repro.ml.preprocessing import LabelEncoder


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Multinomial (softmax) logistic regression with L2 regularization."""

    def __init__(self, C: float = 1.0, max_iter: int = 200, tol: float = 1e-6):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y) -> "LogisticRegression":
        X, y = check_X_y(X, y)
        self._encoder = LabelEncoder().fit(y)
        self.classes_ = self._encoder.classes_
        codes = self._encoder.transform(y)
        n_samples, n_features = X.shape
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("need at least two classes to fit a classifier")
        onehot = np.zeros((n_samples, n_classes))
        onehot[np.arange(n_samples), codes] = 1.0
        alpha = 1.0 / (self.C * n_samples)  # per-sample averaged loss

        def objective(flat: np.ndarray):
            weights = flat[: n_features * n_classes].reshape(n_features, n_classes)
            bias = flat[n_features * n_classes :]
            probs = _softmax(X @ weights + bias)
            eps = 1e-12
            loss = -np.sum(onehot * np.log(probs + eps)) / n_samples
            loss += 0.5 * alpha * np.sum(weights * weights)
            grad_logits = (probs - onehot) / n_samples
            grad_w = X.T @ grad_logits + alpha * weights
            grad_b = grad_logits.sum(axis=0)
            return loss, np.concatenate([grad_w.ravel(), grad_b])

        # Imported here, not at module level: scipy.optimize takes ~0.5 s to
        # import and only fitting needs it, so inference and serving never load it.
        from scipy.optimize import minimize

        start = np.zeros(n_features * n_classes + n_classes)
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        flat = result.x
        self.coef_ = flat[: n_features * n_classes].reshape(n_features, n_classes)
        self.intercept_ = flat[n_features * n_classes :]
        self.n_iter_ = int(result.nit)
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered as :attr:`classes_`."""
        return _softmax(self.decision_function(X))

    def predict(self, X) -> list:
        probs = self.predict_proba(X)
        return self._encoder.inverse_transform(np.argmax(probs, axis=1))


class RidgeRegression(BaseEstimator, RegressorMixin):
    """L2-regularized linear regression, solved in closed form.

    The paper's regression downstream model ("Linear Regression - L2
    Regularization").  ``alpha`` is the regularization strength.
    """

    def __init__(self, alpha: float = 1.0):
        self.alpha = alpha

    def fit(self, X, y) -> "RidgeRegression":
        X, y = check_X_y(X, y)
        y = y.astype(float)
        n_samples, n_features = X.shape
        self._x_mean = X.mean(axis=0)
        self._y_mean = float(y.mean())
        x_centered = X - self._x_mean
        y_centered = y - self._y_mean
        gram = x_centered.T @ x_centered
        gram[np.diag_indices_from(gram)] += self.alpha
        self.coef_ = np.linalg.solve(gram, x_centered.T @ y_centered)
        self.intercept_ = self._y_mean - float(self._x_mean @ self.coef_)
        return self

    def predict(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_array(X)
        return X @ self.coef_ + self.intercept_
