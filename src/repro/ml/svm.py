"""RBF-kernel support vector machine (one-vs-rest, squared hinge).

The paper grid-searches an RBF-SVM (sklearn's SVC).  sklearn is unavailable
here, so we solve the *primal* L2-regularized squared-hinge problem with
L-BFGS over an explicit kernel expansion.  For training sets larger than
``max_landmarks`` a Nyström approximation keeps the kernel matrix tractable
(an n x m map instead of n x n), which preserves RBF-SVM behaviour at
laptop scale — a documented substitution in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseEstimator, ClassifierMixin, check_array, check_X_y
from repro.ml.preprocessing import LabelEncoder


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2), shape (len(a), len(b))."""
    a_sq = np.sum(a * a, axis=1)[:, None]
    b_sq = np.sum(b * b, axis=1)[None, :]
    sq = np.maximum(a_sq + b_sq - 2.0 * a @ b.T, 0.0)
    return np.exp(-gamma * sq)


class RBFSVM(BaseEstimator, ClassifierMixin):
    """RBF-kernel SVM via one-vs-rest squared-hinge on a kernel feature map."""

    def __init__(
        self,
        C: float = 1.0,
        gamma: float = 0.1,
        max_landmarks: int = 1500,
        max_iter: int = 150,
        random_state: int = 0,
    ):
        self.C = C
        self.gamma = gamma
        self.max_landmarks = max_landmarks
        self.max_iter = max_iter
        self.random_state = random_state

    def _feature_map(self, X: np.ndarray) -> np.ndarray:
        kernel = rbf_kernel(X, self.landmarks_, self.gamma)
        return kernel @ self._normalizer

    def fit(self, X, y) -> "RBFSVM":
        X, y = check_X_y(X, y)
        self._encoder = LabelEncoder().fit(y)
        self.classes_ = self._encoder.classes_
        codes = self._encoder.transform(y)
        n_samples = X.shape[0]
        n_classes = len(self.classes_)
        if n_classes < 2:
            raise ValueError("need at least two classes to fit a classifier")

        rng = np.random.default_rng(self.random_state)
        if n_samples > self.max_landmarks:
            index = rng.choice(n_samples, size=self.max_landmarks, replace=False)
            self.landmarks_ = X[np.sort(index)].copy()
        else:
            self.landmarks_ = X.copy()
        # Nyström normalizer: K_mm^{-1/2} so that phi(x) phi(z)^T ~ k(x, z)
        k_mm = rbf_kernel(self.landmarks_, self.landmarks_, self.gamma)
        eigvals, eigvecs = np.linalg.eigh(k_mm)
        eigvals = np.maximum(eigvals, 1e-8)
        self._normalizer = eigvecs @ np.diag(eigvals**-0.5) @ eigvecs.T

        phi = self._feature_map(X)
        n_features = phi.shape[1]
        targets = np.full((n_samples, n_classes), -1.0)
        targets[np.arange(n_samples), codes] = 1.0
        lam = 1.0 / (self.C * n_samples)

        def objective(flat: np.ndarray):
            weights = flat[: n_features * n_classes].reshape(n_features, n_classes)
            bias = flat[n_features * n_classes :]
            margins = phi @ weights + bias
            slack = np.maximum(0.0, 1.0 - targets * margins)
            loss = np.sum(slack * slack) / n_samples
            loss += 0.5 * lam * np.sum(weights * weights)
            grad_margins = -2.0 * targets * slack / n_samples
            grad_w = phi.T @ grad_margins + lam * weights
            grad_b = grad_margins.sum(axis=0)
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
            options={"maxiter": self.max_iter},
        )
        flat = result.x
        self.coef_ = flat[: n_features * n_classes].reshape(n_features, n_classes)
        self.intercept_ = flat[n_features * n_classes :]
        return self

    def decision_function(self, X) -> np.ndarray:
        self._check_fitted("coef_")
        X = check_array(X)
        return self._feature_map(X) @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Softmax over margins — calibrated enough for confidence routing."""
        margins = self.decision_function(X)
        shifted = margins - margins.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, X) -> list:
        margins = self.decision_function(X)
        return self._encoder.inverse_transform(np.argmax(margins, axis=1))
