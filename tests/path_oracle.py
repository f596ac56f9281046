"""Whole-ensemble reference paths, built in one thread, as independent oracle
for the streamed ensemble in tests."""
import numpy as np

from itoarb.geometry import ItoCoefficients
from itoarb.simulate import PathEnsemble


def sequential_reference(model, m_paths, dt, n_steps, seed):
    """The log-Euler ensemble of ``model`` (constant, or ``n_steps`` per-step
    coefficients) built whole in one thread, each 4096-path block drawn from
    its own spawned stream in one draw, and every path's drift and noise
    summed at once."""
    models = [model] * n_steps if isinstance(model, ItoCoefficients) else list(model)
    sigma = np.stack([c.sigma for c in models])
    drift = (np.stack([c.alpha for c in models])
             - 0.5 * np.einsum("tnk,tnk->tn", sigma, sigma)) * dt
    n, k = sigma.shape[1:]
    dw = np.empty((m_paths, n_steps, k))
    for c, child in enumerate(np.random.SeedSequence(seed).spawn(-(-m_paths // 4096))):
        np.random.default_rng(child).standard_normal(out=dw[4096 * c:4096 * (c + 1)])
    dw *= np.sqrt(dt)
    noise = np.zeros((m_paths, n_steps + 1, k))
    np.cumsum(dw, axis=1, out=noise[:, 1:])
    states = np.ones((m_paths, n_steps + 1, n))
    logs = states[:, 1:]  # built in place: a reference the size of the ensemble, no copies
    np.einsum("mtk,tnk->mtn", dw, sigma, out=logs)
    logs += drift
    np.cumsum(logs, axis=1, out=logs)
    np.exp(logs, out=logs)
    return PathEnsemble(states, noise, dt, seed)
