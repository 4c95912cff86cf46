"""How a stacked or streamed run's drawn arrivals are evaluated.

* ``numpy`` -- the stage-wise Lindley pass
  (:mod:`repro.simulation.stagewise`), window by window; always
  available;
* ``numba`` -- the whole multi-cycle loop compiled to one nopython
  function over the run's pre-drawn arrivals
  (:mod:`repro.simulation.backends.jit`); ``"auto"`` takes it whenever
  numba is importable.

The two are bit-identical.  :func:`resolve_kernel` is the one resolver
of a ``backend`` request and :func:`~repro.simulation.backends.jit.run_kernel`
the one call of the kernel.  Backend choice never changes results,
digests, or cache keys -- see ``docs/backends.md``.
"""

from repro.simulation.backends.jit import BACKEND_CHOICES, numba_available, resolve_kernel

__all__ = ["BACKEND_CHOICES", "numba_available", "resolve_kernel"]
