"""Code generators: the Devil compiler's emitted artifacts.

* :mod:`~repro.devil.codegen.c_backend` emits the C stub header the
  paper's compiler produced (Figure 3c) — ``static inline`` accessors
  over a state struct, with ``DEVIL_DEBUG`` run-time checks and the
  ``DEVIL_NO_REF`` single-device macro layer.
* :mod:`~repro.devil.codegen.pyi_backend` emits ``.pyi`` typing stubs
  for the surface of a bound device.

The executable Python lowering is :mod:`repro.devil.specialize`, which
folds the same masks, shifts and addresses into closures at bind time.
"""

from .c_backend import generate_c_header

__all__ = ["generate_c_header"]
