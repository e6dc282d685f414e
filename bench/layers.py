"""Which end-to-end metric, on which workload, each per-layer metric should
move.  Written down before any optimisation is measured against it; the
self-test checks that it names exactly the per-layer metrics of
BENCHMARK.json.  ``self_s`` is span time minus the time of child spans.
"""

TWISTED = "wall_s on twisted-q and twisted-fp"
SCENARIOS = ("sl3-witness", "g1-bruteforce", "depth-gap-product",
             "pencil-resonance", "tangent-match", "weight-equivariance",
             "transversality-product", "torus-pi-equals-r11")

MOVES = {
    "linalg.rref.calls": TWISTED + " nearly 1:1; no change on census",
    "linalg.rref.self_s": TWISTED + " nearly 1:1; no change on census",
    "linalg.rref.entries": TWISTED + " nearly 1:1; no change on census",
    "linalg.rank.distinct_ratio":
        "wall_s on twisted-q: raising it to 1 cuts the share spent on "
        "repeat ranks (the tangent matrix equals the degree-1 adjoint "
        "differential, so it repeats too)",
    "linalg.Matrix.calls": "wall_s on catalog",
    "linalg.Matrix.self_s": "wall_s on catalog",
    "linalg.matmul.self_s": "wall_s on catalog",
    "scalars.qq.ops": "wall_s on twisted-q",
    "scalars.gf.ops": "wall_s on twisted-fp",
    "aomoto.aomoto_matrix.calls": TWISTED,
    "aomoto.aomoto_matrix.self_s":
        TWISTED + "; assembly is about 2 % of twisted-q, which bounds the "
        "gain",
    "aomoto.betti.calls": TWISTED,
    "flatconn.brute_force_flat.self_s": "wall_s and peak_rss_mb on census",
    "flatconn.census.candidates_per_s": "wall_s on census (p^k over the "
                                        "time of brute_force_flat)",
    "flatconn.census.hit_ratio": "wall_s on census (flats over p^k "
                                 "candidates)",
    "flatconn.census.jobs1_s": "base of jobs2_speedup, census only",
    "flatconn.census.jobs2_s": "base of jobs2_speedup, census only",
    "flatconn.census.jobs2_speedup": "wall_s on census if the default job "
                                     "count changes; census only",
    "flatconn.tangent_dimension.self_s": TWISTED + " (assembly without "
                                                   "the rank child)",
    "flatconn.mc_residual.calls": TWISTED,
    "flatconn.mc_residual.self_s": TWISTED,
    "holonomy.relation_check_mask.self_s": "wall_s on catalog",
    "holonomy.relation_check.calls": "wall_s on catalog",
    "holonomy.holonomy_presentation.self_s": "wall_s on catalog",
    "grouprep.twisted_cohomology.self_s": "wall_s on catalog",
    "grouprep.fox_derivative.calls": "wall_s on catalog",
    "grouprep.fox_derivative.self_s": "wall_s on catalog",
    "cdga.product_basis.calls": "setup_s and assembly time on twisted-q "
                                "and twisted-fp",
    "cdga.tensor_product_with_inclusions.self_s":
        "setup_s on twisted-q and twisted-fp",
    "models.build.self_s": "setup_s on twisted-q and twisted-fp",
    "liealg.bracket.calls": "wall_s on catalog",
    "sampling.sample_flat.self_s": "wall_s on catalog",
    "serialize.resolve.self_s": "wall_s on catalog",
    "cli.main.self_s": "wall_s on catalog",
    "cli.import_s": "cli_cold_s on every workload",
    "trace.untraced_wall_s": "base of trace.overhead_s",
    "trace.traced_wall_s": "base of trace.overhead_s",
    "trace.overhead_s": "none: the cost of tracing, traced minus untraced "
                        "pass time",
}
MOVES.update({f"scenarios.{name}.s": "wall_s on catalog"
              for name in SCENARIOS})
