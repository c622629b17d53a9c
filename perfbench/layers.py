"""Per-layer metrics derived from the spans of a traced pass.

A command's wall time, from the parent's spawn to the reaped exit, is cut
into phases that add up to it exactly:

    proc.start_s     spawn until the launcher's first statement
                     (interpreter start-up)
    cli.import_s     `import tilelap.cli`
    trace.install_s  wrapping the library (traced runs only)
    cli.parse_s      parser build and argument parsing
    <layer>.self_s   the subcommand handler, split by layer: each span's
                     duration minus that of its child spans, summed per
                     layer; `cli.self_s` is the handler's own remainder
    proc.exit_s      handler return until the process is reaped

A layer is named after the module that does the work (see
tracer.LAYERS).  Work counts come from the probes the tracer attaches to
spans.
"""

from tracer import layer_of

# the seed's spectral.DENSE_CUTOFF: eigen solves are reported as small
# (dense path at the seed) up to this dimension and as large above it
DENSE_CUTOFF = 2000

TIME_LAYERS = (
    "catalog.load", "surface", "bundle",
    "discretize.build", "discretize.lattice_points",
    "discretize.distance_to_singular", "discretize.census", "discretize",
    "operators.laplacian", "operators.edge_loops", "operators",
    "spectral.eigen.large", "spectral.eigen.small", "spectral.tables",
    "spectral",
    "interp.average", "interp.linearize", "interp.restrict", "interp.field",
    "interp.subspace_error", "interp.consistency_residual", "interp",
    "potential.green", "potential.green_residual", "potential.barrier",
    "potential.harnack", "potential",
    "crsf.determinant", "crsf.forest_sum", "crsf",
    "cli.emit", "cli",
)
PHASES = ("proc.start_s", "cli.import_s", "trace.install_s", "cli.parse_s",
          "proc.exit_s")

# count metric -> (span names, probe field or None for the number of calls);
# fields are summed over calls, so lattice_points.count counts the points
# every call returns, cached or not
_BUILD = ("discretize.Discretization.__init__",)
_LATTICE = ("discretize.Discretization.lattice_points",)
_LAPLACIAN = ("operators.laplacian",)
_EIGEN = ("spectral.lowest_eigenpairs",)
_LINEARIZE = ("interp.linearize",)
COUNTS = {
    "discretize.build.calls": (_BUILD, None),
    "discretize.unknowns": (_BUILD, "unknowns"),
    "discretize.edges": (_BUILD, "edges"),
    "discretize.lattice_points.calls": (_LATTICE, None),
    "discretize.lattice_points.count": (_LATTICE, "count"),
    "operators.laplacian.calls": (_LAPLACIAN, None),
    "operators.laplacian.nnz": (_LAPLACIAN, "nnz"),
    "spectral.eigen.calls": (_EIGEN, None),
    "spectral.eigen.pairs": (_EIGEN, "pairs"),
    "interp.average.calls": (("interp.average",), None),
    "interp.linearize.calls": (_LINEARIZE, None),
    "interp.linearize.grid_points": (_LINEARIZE, "grid_points"),
    "potential.green.points": (("potential.green_ball",
                                "potential.green_halfplane"), "points"),
    "crsf.graphs": (("crsf.random_connection_graph",), None),
}
REUSE = {
    "discretize.builds_per_mesh": "discretize.Discretization.__init__",
    "operators.laplacian.calls_per_mesh": "operators.laplacian",
    "spectral.solves_per_mesh": "spectral.lowest_eigenpairs",
}


def span_layer(span):
    name, _, _, _, info = span
    layer = layer_of(name)
    if layer == "spectral.eigen":
        # a solve that raised has no probe; it counts as small
        dim = (info or {}).get("dim", 0)
        size = "large" if dim > DENSE_CUTOFF else "small"
        layer = "spectral.eigen." + size
    return layer


def self_times(spans):
    """Self time per span: duration minus the durations of its children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def command_phases(record):
    """Phase and layer times of one traced command; they sum to its wall."""
    rep = record["report"]
    spawn, reaped = record["spawn"], record["reaped"]
    start = rep.get("start", spawn)
    imported = rep.get("imported", start)
    installed = rep.get("installed", imported)
    handler_in = rep.get("handler_in", installed)
    handler_out = rep.get("handler_out", handler_in)
    out = {"proc.start_s": start - spawn,
           "cli.import_s": imported - start,
           "trace.install_s": installed - imported,
           "cli.parse_s": handler_in - installed,
           "proc.exit_s": reaped - handler_out}
    spans = rep.get("spans", [])
    layers = dict.fromkeys(TIME_LAYERS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        layer = span_layer(span)
        if layer != "cli":
            layers[layer] += own
    # the handler interval minus everything its callees did
    layers["cli"] = (handler_out - handler_in) - sum(
        v for k, v in layers.items() if k != "cli")
    for layer, value in layers.items():
        out[layer + ".self_s"] = value
    return out


def _mesh_of(spans, index):
    """Mesh of a span: its own probe's, else the nearest ancestor's."""
    while index >= 0:
        info = spans[index][4]
        if info and "mesh" in info:
            return tuple(info["mesh"])
        index = spans[index][3]
    return None


def traced_metrics(records, wall):
    """Per-layer metrics of one traced pass (``records`` as in run.py)."""
    metrics = dict.fromkeys(PHASES, 0.0)
    for layer in TIME_LAYERS:
        metrics[layer + ".self_s"] = 0.0
    for name in COUNTS:
        metrics[name] = 0
    metrics["spectral.eigen.dim_max"] = 0
    metrics["spectral.eigen.residual_max"] = 0.0
    calls = dict.fromkeys(REUSE, 0)
    meshes = {name: set() for name in REUSE}
    span_count = 0
    for number, record in enumerate(records):
        for key, value in command_phases(record).items():
            metrics[key] = metrics.get(key, 0.0) + value
        spans = record["report"].get("spans", [])
        span_count += len(spans)
        for index, span in enumerate(spans):
            name, info = span[0], span[4] or {}
            for metric, (targets, field) in COUNTS.items():
                if name in targets:
                    metrics[metric] += (1 if field is None
                                        else info.get(field, 0))
            if name == "spectral.lowest_eigenpairs":
                metrics["spectral.eigen.dim_max"] = max(
                    metrics["spectral.eigen.dim_max"], info.get("dim", 0))
                metrics["spectral.eigen.residual_max"] = max(
                    metrics["spectral.eigen.residual_max"],
                    info.get("residual_max", 0.0))
            for metric, target in REUSE.items():
                if name == target:
                    calls[metric] += 1
                    mesh = _mesh_of(spans, index) or ("dim", info.get("dim"))
                    meshes[metric].add((number,) + mesh)
    for metric in REUSE:
        metrics[metric] = (calls[metric] / len(meshes[metric])
                           if meshes[metric] else 0.0)
    accounted = (sum(metrics[k] for k in PHASES)
                 + sum(metrics[k + ".self_s"] for k in TIME_LAYERS))
    metrics["trace.wall_s"] = wall
    metrics["trace.unaccounted_s"] = wall - accounted
    metrics["trace.spans"] = span_count
    return metrics
