let () =
  Alcotest.run "repro"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("engine", Test_engine.suite);
      ("exec", Test_exec.suite);
      ("pool", Test_pool.suite);
      ("cross_engine", Test_cross_engine.suite);
      ("chaos", Test_chaos.suite);
      ("count_sim", Test_count_sim.suite);
      ("exact", Test_exact.suite);
      ("topology", Test_topology.suite);
      ("loose", Test_loose.suite);
      ("processes", Test_processes.suite);
      ("core", Test_core.suite);
      ("recovery", Test_recovery.suite);
      ("telemetry", Test_telemetry.suite);
      ("experiments", Test_experiments.suite);
      ("analysis", Test_analysis.suite);
      ("ir", Test_ir.suite);
      ("certify", Test_certify.suite);
      ("viz", Test_viz.suite);
      ("fleet", Test_fleet.suite);
      ("parsers", Test_parsers.suite);
    ]
