let () =
  Alcotest.run "dsdg"
    [ ("bits", Suite_bits.suite);
      ("entropy", Suite_entropy.suite);
      ("sa", Suite_sa.suite);
      ("wavelet", Suite_wavelet.suite);
      ("fm", Suite_fm.suite);
      ("buffer", Suite_buffer.suite);
      ("delbits", Suite_delbits.suite);
      ("exec", Suite_exec.suite);
      ("core", Suite_core.suite);
      ("transform2", Suite_transform2.suite);
      ("transform3", Suite_transform3.suite);
      ("check", Suite_check.suite);
      ("epoch", Suite_epoch.suite);
      ("store", Suite_store.suite);
      ("shard", Suite_shard.suite);
      ("dynseq_spsi", Suite_dynseq.spsi_suite);
      ("dynseq", Suite_dynseq.suite);
      ("binrel", Suite_binrel.suite);
      ("workload", Suite_workload.suite);
      ("serve", Suite_serve.suite);
      ("repl", Suite_repl.suite);
      ("cli", Suite_cli.suite);
      ("api", Suite_api.suite) ]
