(* Seeded R8 violation: library code resetting and toggling the
   process-global observability root. Linted as if it lived under
   lib/exec/; never compiled. *)

let measure f =
  Dmw_obs.Metrics.reset ();
  Dmw_obs.Span.reset ();
  Dmw_obs.Metrics.enable ();
  Fun.protect ~finally:Dmw_obs.Metrics.disable f
