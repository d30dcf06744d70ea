"""ZeroER's core: grouped/correlation-shared GMM, adaptive regularization,
driver-local numpy EM engine, transitivity posterior constraints, and
the end-to-end pipeline (`repro.core.zeroer.run_zeroer`)."""
from repro.core.em import EMConfig  # noqa: F401
from repro.core.zeroer import ZeroERResult, run_zeroer  # noqa: F401
