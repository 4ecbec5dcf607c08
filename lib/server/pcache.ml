(* Alias of [Qcache], whose [`Plan] entries are the maintained plans;
   kept while perfbench/serve_run.ml still names it. *)
include Qcache
