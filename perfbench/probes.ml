(* Layer probes: the benchmark's own timed calls into one public
   function of each layer, at the workload's group and σ. Each figure
   is the median over [reps] batches; a batch is sized from one
   calibration call to take about [batch_s]. Probes run untraced, so
   the program's obs counters cost them nothing. *)

open Dmw_bigint
open Dmw_modular
open Dmw_crypto
open Dmw_core
open Meas

let reps = 9
let batch_s = 0.01

let batch_for f =
  let t0 = now () in
  f 0;
  max 1 (int_of_float (batch_s /. Float.max 1e-7 (now () -. t0)))

(* Median microseconds per call of [f i], [i] counting calls. *)
let per_call_us name f =
  Acct.timed name (fun () ->
      let batch = batch_for f in
      median
        (List.init reps (fun r ->
             let t0 = now () in
             for i = 0 to batch - 1 do f ((r * batch) + i) done;
             (now () -. t0) /. float_of_int batch *. 1e6)))

let checked what ok = if not ok then failwith ("probe check failed: " ^ what)

(* Mean frame payload for the frame probe: measured frames on serve,
   the Codec-sized messages on the simulator, which frames nothing. *)
let mean_frame_bytes (c : Acct.counts) =
  if c.frames > 0 then (c.wire_bytes / c.frames) - Dmw_net.Frame.header_size
  else c.bytes / max 1 c.messages

(* [counts] are the traced window's, for the frame size. *)
let run (params : Params.t) ~counts =
  let frame_bytes = mean_frame_bytes counts in
  let g = params.Params.group in
  let rng = Prng.create ~seed:0x9b0b in
  let inputs = 64 in
  let pick a i = a.(i mod Array.length a) in
  let exps = Array.init inputs (fun _ -> Group.random_exponent g rng) in
  let elts = Array.map (fun e -> Group.pow g g.Group.z1 e) exps in
  let pow_us =
    per_call_us "probe.pow" (fun i ->
        ignore (Group.pow g (pick elts i) (pick exps (i + 1))))
  in
  let pow_minor_words =
    Acct.timed "probe.pow_alloc" (fun () ->
        let k = 32 in
        median
          (List.init reps (fun r ->
               let w0 = Gc.minor_words () in
               for i = 0 to k - 1 do
                 ignore (Group.pow g (pick elts (r + i)) (pick exps i))
               done;
               (Gc.minor_words () -. w0) /. float_of_int k)))
  in
  let mul_us =
    per_call_us "probe.mul" (fun i ->
        ignore (Zmod.mul g.Group.p (pick elts i) (pick elts (i + 7))))
  in
  let commit_us =
    per_call_us "probe.commit" (fun i ->
        ignore (Pedersen.commit g ~value:(pick exps i) ~blinding:(pick exps (i + 3))))
  in
  (* A dealer bidding the middle level, as in a live auction. *)
  let y = (params.Params.w_max + 1) / 2 in
  let sigma = params.Params.sigma in
  let dealer = Bid_commitments.generate rng ~group:g ~sigma ~tau:(sigma - y) in
  let alpha = params.Params.alphas.(1) in
  let share = Bid_commitments.share_for dealer ~alpha in
  let verify_share_us =
    per_call_us "probe.verify_share" (fun _ ->
        checked "verify_share"
          (Result.is_ok
             (Bid_commitments.verify_share g dealer.Bid_commitments.public
                ~alpha share)))
  in
  let points = params.Params.alphas in
  let poly =
    Dmw_poly.Poly.random rng ~modulus:g.Group.q ~degree:(sigma - y)
      ~zero_constant:true
  in
  let values = Array.map (Dmw_poly.Poly.eval poly) points in
  let resolve_us =
    per_call_us "probe.resolve" (fun _ ->
        checked "resolve_exact"
          (Dmw_poly.Degree_resolution.resolve_exact ~modulus:g.Group.q ~points
             ~values
          = Some (sigma - y)))
  in
  let msg =
    Messages.Commitments { task = 0; public = dealer.Bid_commitments.public }
  in
  let codec_us =
    per_call_us "probe.codec" (fun _ ->
        checked "codec roundtrip"
          (Result.is_ok (Codec.decode (Codec.encode msg))))
  in
  let frame_us =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let payload = String.make (max 1 frame_bytes) 'x' in
    Fun.protect
      ~finally:(fun () -> Unix.close a; Unix.close b)
      (fun () ->
        per_call_us "probe.frame" (fun _ ->
            Dmw_net.Frame.write a ~src:0 ~dst:1 payload;
            checked "frame roundtrip"
              (match Dmw_net.Frame.read b with
              | `Frame (_, _, p) -> String.length p = String.length payload
              | `Closed -> false)))
  in
  let append_sync_us =
    let dir = fresh_dir "probe" in
    let w = Dmw_wal.create (Filename.concat dir "probe.wal") in
    Fun.protect
      ~finally:(fun () -> Dmw_wal.close w; remove_dir dir)
      (fun () ->
        per_call_us "probe.wal" (fun i ->
            Dmw_wal.append w
              (Dmw_wal.Task_done
                 { attempt = 1; task = i; winner = 0; y_star = 1; y_star2 = 2 });
            Dmw_wal.sync w))
  in
  [ metric "modular.pow_us" "us" pow_us;
    metric "modular.pow_minor_words" "words" pow_minor_words;
    metric "modular.mul_us" "us" mul_us;
    metric "crypto.commit_us" "us" commit_us;
    metric "crypto.verify_share_us" "us" verify_share_us;
    metric "poly.resolve_us" "us" resolve_us;
    metric "core.codec_roundtrip_us" "us" codec_us;
    metric "net.frame_roundtrip_us" "us" frame_us;
    metric "wal.append_sync_us" "us" append_sync_us ]
