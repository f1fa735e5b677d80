(* Entry point aggregating every library's test suite. *)
let () =
  Alcotest.run "hidap"
    (Test_util.suite @ Test_geom.suite @ Test_graphlib.suite @ Test_netlist.suite
    @ Test_hnl.suite @ Test_hier.suite @ Test_seqgraph.suite @ Test_dataflow.suite
    @ Test_shape.suite @ Test_anneal.suite @ Test_slicing.suite @ Test_core.suite
    @ Test_substrates.suite @ Test_toolchain.suite @ Test_extras.suite
    @ Test_integration.suite @ Test_properties.suite @ Test_attrib.suite
    @ Test_incremental.suite @ Test_obs.suite @ Test_qor.suite
    @ Test_parexec.suite @ Test_guard.suite @ Test_ckpt.suite @ Test_serve.suite
    @ Test_decoders.suite)
