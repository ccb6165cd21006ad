"""Read a deployment's counters off its metrics registry."""


def total(service, name):
    """Metric ``name`` summed over its label children: 0 while nothing
    has registered it (storage faults never armed, say)."""
    metric = service.metrics.get(name)
    if metric is None:
        return 0.0
    return sum(child.value for _labels, child in metric.items())
