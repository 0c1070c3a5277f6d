"""End-to-end benchmark of the paper-artifact paths (see README.md here).

``spec`` declares the workloads and metrics as data, ``drivers`` feeds
them to the program, ``tracing`` wraps the layers' public functions from
outside for the per-layer run, ``run`` is the one command, ``compare``
gates two result files against the declared bounds.
"""
