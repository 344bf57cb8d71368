"""Whole-program rules: contracts no single file can witness.

The three rules in this package check the
:class:`~repro.analysis.project.ProjectGraph` every ``repro lint`` run
builds, asking their questions of the graph's one origin resolver
(:meth:`~repro.analysis.project.ProjectGraph.resolve`):

``pin-discipline``
    Store reads reached from sampler entry points happen under a
    pinned ``read_view()`` snapshot.
``rng-provenance``
    Seeds flowing into ``default_rng`` trace to injected entropy, and
    unordered set iteration never feeds accounting.
``counter-ownership``
    Registered counter classes mutate only in their owning modules,
    resolved by receiver *type* rather than attribute name.

The counter registry both accounting rules read is
:mod:`repro.analysis.rules.crossmodule.registry`.
"""
