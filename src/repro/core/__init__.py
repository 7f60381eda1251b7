"""The paper's primary contribution: rate-based mux scheduling.

The MediaWorm router is a conventional pipelined wormhole router whose
multiplexing scheduler — the policy that decides, each cycle, which
virtual channel's flit gets the shared resource — is replaced by the
rate-based **Virtual Clock** algorithm (Zhang 1991).  This package holds
the scheduler implementations (:mod:`repro.core.schedulers`), the
per-message Virtual Clock state (:mod:`repro.core.virtual_clock`), and
the admission-control scheme the paper's conclusion sketches
(:mod:`repro.core.admission`).  A MediaWorm router is a
:class:`~repro.router.config.RouterConfig` whose ``qos_policy`` is
Virtual Clock; each experiment type builds its own
(``router_config``, :mod:`repro.experiments.config`).
"""
