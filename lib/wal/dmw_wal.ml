(* Durable write-ahead audit log. See dmw_wal.mli for the on-disk
   format and the recovery model; PROTOCOL.md section 8 documents the
   byte layout normatively, and DESIGN.md "Durability boundary"
   explains why crypto material never appears here. *)

open Dmw_bigint
open Dmw_modular
open Dmw_core
module Metrics = Dmw_obs.Metrics
module Mutex_util = Dmw_runtime.Mutex_util

type params_snapshot = {
  p : string;
  q : string;
  z1 : string;
  z2 : string;
  n : int;
  m : int;
  c : int;
  w_max : int;
  (* race: confined readonly: built whole by snapshot_of_params or the
     decoder and never written afterwards; every consumer only reads. *)
  alphas : string array;
}

type record =
  | Run_start of {
      seed : int;
      params : params_snapshot;
      bids : int array array;
      batching : bool;
      hardened : bool;
      pipeline : int option;
      retries : int;
      watchdog : float option;
      faults : string option;
    }
  | Attempt_start of { attempt : int; attempt_seed : int; survivors : int }
  | Task_phase of { attempt : int; task : int; phase : Agent.phase }
  | Task_done of {
      attempt : int;
      task : int;
      winner : int;
      y_star : int;
      y_star2 : int;
    }
  | Audit_entry of {
      attempt : int;
      agent : int;
      task : int;
      description : string;
      ok : bool;
    }
  | Abort of { attempt : int; agent : int; reason : Audit.reason }
  | Run_end of {
      schedule : int array option;
      first_prices : int array option;
      second_prices : int array option;
      payments : float option array;
      attempts : int;
      excluded : int array;
    }
  | Resumed of { kept : int }
  | Serve_start of {
      n : int;
      c : int;
      group_bits : int;
      seed : int;
      w_max : int option;
      pipeline : int option;
      max_wave : int;
    }
  | Job_submitted of { job : int; bids : int array }
  | Epoch_start of { epoch : int; jobs : int array }
  | Job_done of {
      job : int;
      epoch : int;
      task : int;
      winner : int;
      y_star : int;
      y_star2 : int;
    }
  | Job_failed of { job : int; epoch : int; task : int; error : string }
  | Epoch_end of { epoch : int }

let magic = "DMWWAL01"
let max_payload = 1 lsl 24

(* ------------------------------------------------------------------ *)
(* Params round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let snapshot_of_params (pr : Params.t) =
  let g = pr.Params.group in
  { p = Bigint.to_string g.Group.p;
    q = Bigint.to_string g.Group.q;
    z1 = Bigint.to_string g.Group.z1;
    z2 = Bigint.to_string g.Group.z2;
    n = pr.Params.n;
    m = pr.Params.m;
    c = pr.Params.c;
    w_max = pr.Params.w_max;
    alphas = Array.map Bigint.to_string pr.Params.alphas }

let params_of_snapshot s =
  match
    let p = Bigint.of_string s.p
    and q = Bigint.of_string s.q
    and z1 = Bigint.of_string s.z1
    and z2 = Bigint.of_string s.z2
    and alphas = Array.map Bigint.of_string s.alphas in
    Ok (p, q, z1, z2, alphas)
  with
  | exception (Invalid_argument msg | Failure msg) ->
      Error ("journaled params: bad integer literal: " ^ msg)
  | Error e -> Error e
  | Ok (p, q, z1, z2, alphas) -> (
      match Group.create ~p ~q ~z1 ~z2 with
      | Error e -> Error ("journaled params: " ^ e)
      | Ok group ->
          Params.of_parts ~group ~n:s.n ~m:s.m ~c:s.c ~w_max:s.w_max ~alphas)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven, plain OCaml ints                 *)
(* ------------------------------------------------------------------ *)

(* race: confined readonly: the CRC table is filled once at module
   initialization, before any thread exists, and only read after. *)
let crc_table =
  let t = Array.make 256 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  t

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := crc_table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Payload codec                                                       *)
(* ------------------------------------------------------------------ *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
let add_i64 b v = Buffer.add_int64_be b (Int64.of_int v)
let add_u32 b v = Buffer.add_int32_be b (Int32.of_int v)
let add_bool b v = add_u8 b (if v then 1 else 0)
let add_f64 b v = Buffer.add_int64_be b (Int64.bits_of_float v)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_opt f b = function
  | None -> add_u8 b 0
  | Some v ->
      add_u8 b 1;
      f b v

let add_arr f b a =
  add_u32 b (Array.length a);
  Array.iter (f b) a

let add_int_arr = add_arr add_i64
let add_str_arr = add_arr add_str

let add_phase b ph =
  add_u8 b
    (match ph with
    | Agent.Bidding -> 0
    | Agent.Resolving_first -> 1
    | Agent.Identifying -> 2
    | Agent.Resolving_second -> 3
    | Agent.Done_ -> 4)

let add_reason b = function
  | Audit.Bad_share { dealer } ->
      add_u8 b 0;
      add_i64 b dealer
  | Audit.Bad_lambda_psi { agent } ->
      add_u8 b 1;
      add_i64 b agent
  | Audit.Bad_disclosure { agent } ->
      add_u8 b 2;
      add_i64 b agent
  | Audit.Bad_lambda_psi_excl { agent } ->
      add_u8 b 3;
      add_i64 b agent
  | Audit.Resolution_failed { stage } ->
      add_u8 b 4;
      add_str b stage
  | Audit.Payment_disagreement -> add_u8 b 5
  | Audit.Stalled { phase } ->
      add_u8 b 6;
      add_str b phase
  | Audit.Peer_silent { agent } ->
      add_u8 b 7;
      add_i64 b agent
  | Audit.Deadline_exceeded { phase } ->
      add_u8 b 8;
      add_str b phase

let add_snapshot b s =
  add_str b s.p;
  add_str b s.q;
  add_str b s.z1;
  add_str b s.z2;
  add_i64 b s.n;
  add_i64 b s.m;
  add_i64 b s.c;
  add_i64 b s.w_max;
  add_str_arr b s.alphas

let encode r =
  let b = Buffer.create 64 in
  (match r with
  | Run_start
      { seed; params; bids; batching; hardened; pipeline; retries; watchdog;
        faults } ->
      add_u8 b 0;
      add_i64 b seed;
      add_snapshot b params;
      add_arr add_int_arr b bids;
      add_bool b batching;
      add_bool b hardened;
      add_opt add_i64 b pipeline;
      add_i64 b retries;
      add_opt add_f64 b watchdog;
      add_opt add_str b faults
  | Attempt_start { attempt; attempt_seed; survivors } ->
      add_u8 b 1;
      add_i64 b attempt;
      add_i64 b attempt_seed;
      add_i64 b survivors
  | Task_phase { attempt; task; phase } ->
      add_u8 b 2;
      add_i64 b attempt;
      add_i64 b task;
      add_phase b phase
  | Task_done { attempt; task; winner; y_star; y_star2 } ->
      add_u8 b 3;
      add_i64 b attempt;
      add_i64 b task;
      add_i64 b winner;
      add_i64 b y_star;
      add_i64 b y_star2
  | Audit_entry { attempt; agent; task; description; ok } ->
      add_u8 b 4;
      add_i64 b attempt;
      add_i64 b agent;
      add_i64 b task;
      add_str b description;
      add_bool b ok
  | Abort { attempt; agent; reason } ->
      add_u8 b 5;
      add_i64 b attempt;
      add_i64 b agent;
      add_reason b reason
  | Run_end
      { schedule; first_prices; second_prices; payments; attempts; excluded }
    ->
      add_u8 b 6;
      add_opt add_int_arr b schedule;
      add_opt add_int_arr b first_prices;
      add_opt add_int_arr b second_prices;
      add_arr (add_opt add_f64) b payments;
      add_i64 b attempts;
      add_int_arr b excluded
  | Resumed { kept } ->
      add_u8 b 7;
      add_i64 b kept
  | Serve_start { n; c; group_bits; seed; w_max; pipeline; max_wave } ->
      add_u8 b 8;
      add_i64 b n;
      add_i64 b c;
      add_i64 b group_bits;
      add_i64 b seed;
      add_opt add_i64 b w_max;
      add_opt add_i64 b pipeline;
      add_i64 b max_wave
  | Job_submitted { job; bids } ->
      add_u8 b 9;
      add_i64 b job;
      add_int_arr b bids
  | Epoch_start { epoch; jobs } ->
      add_u8 b 10;
      add_i64 b epoch;
      add_int_arr b jobs
  | Job_done { job; epoch; task; winner; y_star; y_star2 } ->
      add_u8 b 11;
      add_i64 b job;
      add_i64 b epoch;
      add_i64 b task;
      add_i64 b winner;
      add_i64 b y_star;
      add_i64 b y_star2
  | Job_failed { job; epoch; task; error } ->
      add_u8 b 12;
      add_i64 b job;
      add_i64 b epoch;
      add_i64 b task;
      add_str b error
  | Epoch_end { epoch } ->
      add_u8 b 13;
      add_i64 b epoch);
  Buffer.contents b

exception Malformed of string

(* race: confined owner: a cursor is created, driven and dropped
   entirely within one decode call; it never escapes to another
   thread. *)
type cursor = { buf : string; mutable pos : int }

let need cur k what =
  if cur.pos + k > String.length cur.buf then raise (Malformed ("short " ^ what))

let get_u8 cur =
  need cur 1 "u8";
  let v = Char.code cur.buf.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let get_i64 cur =
  need cur 8 "i64";
  let v = Int64.to_int (String.get_int64_be cur.buf cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_f64 cur =
  need cur 8 "f64";
  let v = Int64.float_of_bits (String.get_int64_be cur.buf cur.pos) in
  cur.pos <- cur.pos + 8;
  v

let get_len cur what =
  need cur 4 "length";
  let v = Int32.to_int (String.get_int32_be cur.buf cur.pos) in
  cur.pos <- cur.pos + 4;
  if v < 0 then raise (Malformed ("negative length in " ^ what));
  if v > String.length cur.buf - cur.pos then
    raise (Malformed (what ^ " length exceeds payload"));
  v

let get_str cur =
  let k = get_len cur "string" in
  let s = String.sub cur.buf cur.pos k in
  cur.pos <- cur.pos + k;
  s

let get_bool cur =
  match get_u8 cur with
  | 0 -> false
  | 1 -> true
  | v -> raise (Malformed ("bad bool byte " ^ string_of_int v))

let get_opt f cur =
  match get_u8 cur with
  | 0 -> None
  | 1 -> Some (f cur)
  | v -> raise (Malformed ("bad option byte " ^ string_of_int v))

let get_arr f cur =
  let k = get_len cur "array" in
  if k = 0 then [||]
  else begin
    let first = f cur in
    let a = Array.make k first in
    for i = 1 to k - 1 do
      a.(i) <- f cur
    done;
    a
  end

let get_int_arr cur = get_arr get_i64 cur
let get_str_arr cur = get_arr get_str cur

let get_phase cur =
  match get_u8 cur with
  | 0 -> Agent.Bidding
  | 1 -> Agent.Resolving_first
  | 2 -> Agent.Identifying
  | 3 -> Agent.Resolving_second
  | 4 -> Agent.Done_
  | v -> raise (Malformed ("unknown phase tag " ^ string_of_int v))

let get_reason cur =
  match get_u8 cur with
  | 0 -> Audit.Bad_share { dealer = get_i64 cur }
  | 1 -> Audit.Bad_lambda_psi { agent = get_i64 cur }
  | 2 -> Audit.Bad_disclosure { agent = get_i64 cur }
  | 3 -> Audit.Bad_lambda_psi_excl { agent = get_i64 cur }
  | 4 -> Audit.Resolution_failed { stage = get_str cur }
  | 5 -> Audit.Payment_disagreement
  | 6 -> Audit.Stalled { phase = get_str cur }
  | 7 -> Audit.Peer_silent { agent = get_i64 cur }
  | 8 -> Audit.Deadline_exceeded { phase = get_str cur }
  | v -> raise (Malformed ("unknown abort-reason tag " ^ string_of_int v))

let get_snapshot cur =
  let p = get_str cur in
  let q = get_str cur in
  let z1 = get_str cur in
  let z2 = get_str cur in
  let n = get_i64 cur in
  let m = get_i64 cur in
  let c = get_i64 cur in
  let w_max = get_i64 cur in
  let alphas = get_str_arr cur in
  { p; q; z1; z2; n; m; c; w_max; alphas }

let decode_payload cur =
  match get_u8 cur with
  | 0 ->
      let seed = get_i64 cur in
      let params = get_snapshot cur in
      let bids = get_arr get_int_arr cur in
      let batching = get_bool cur in
      let hardened = get_bool cur in
      let pipeline = get_opt get_i64 cur in
      let retries = get_i64 cur in
      let watchdog = get_opt get_f64 cur in
      let faults = get_opt get_str cur in
      Run_start
        { seed; params; bids; batching; hardened; pipeline; retries; watchdog;
          faults }
  | 1 ->
      let attempt = get_i64 cur in
      let attempt_seed = get_i64 cur in
      let survivors = get_i64 cur in
      Attempt_start { attempt; attempt_seed; survivors }
  | 2 ->
      let attempt = get_i64 cur in
      let task = get_i64 cur in
      let phase = get_phase cur in
      Task_phase { attempt; task; phase }
  | 3 ->
      let attempt = get_i64 cur in
      let task = get_i64 cur in
      let winner = get_i64 cur in
      let y_star = get_i64 cur in
      let y_star2 = get_i64 cur in
      Task_done { attempt; task; winner; y_star; y_star2 }
  | 4 ->
      let attempt = get_i64 cur in
      let agent = get_i64 cur in
      let task = get_i64 cur in
      let description = get_str cur in
      let ok = get_bool cur in
      Audit_entry { attempt; agent; task; description; ok }
  | 5 ->
      let attempt = get_i64 cur in
      let agent = get_i64 cur in
      let reason = get_reason cur in
      Abort { attempt; agent; reason }
  | 6 ->
      let schedule = get_opt get_int_arr cur in
      let first_prices = get_opt get_int_arr cur in
      let second_prices = get_opt get_int_arr cur in
      let payments = get_arr (get_opt get_f64) cur in
      let attempts = get_i64 cur in
      let excluded = get_int_arr cur in
      Run_end
        { schedule; first_prices; second_prices; payments; attempts; excluded }
  | 7 -> Resumed { kept = get_i64 cur }
  | 8 ->
      let n = get_i64 cur in
      let c = get_i64 cur in
      let group_bits = get_i64 cur in
      let seed = get_i64 cur in
      let w_max = get_opt get_i64 cur in
      let pipeline = get_opt get_i64 cur in
      let max_wave = get_i64 cur in
      Serve_start { n; c; group_bits; seed; w_max; pipeline; max_wave }
  | 9 ->
      let job = get_i64 cur in
      let bids = get_int_arr cur in
      Job_submitted { job; bids }
  | 10 ->
      let epoch = get_i64 cur in
      let jobs = get_int_arr cur in
      Epoch_start { epoch; jobs }
  | 11 ->
      let job = get_i64 cur in
      let epoch = get_i64 cur in
      let task = get_i64 cur in
      let winner = get_i64 cur in
      let y_star = get_i64 cur in
      let y_star2 = get_i64 cur in
      Job_done { job; epoch; task; winner; y_star; y_star2 }
  | 12 ->
      let job = get_i64 cur in
      let epoch = get_i64 cur in
      let task = get_i64 cur in
      let error = get_str cur in
      Job_failed { job; epoch; task; error }
  | 13 -> Epoch_end { epoch = get_i64 cur }
  | v -> raise (Malformed ("unknown record tag " ^ string_of_int v))

let decode s =
  match
    let cur = { buf = s; pos = 0 } in
    let r = decode_payload cur in
    if cur.pos <> String.length s then raise (Malformed "trailing bytes");
    r
  with
  | r -> Ok r
  | exception Malformed msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Recovery reader                                                     *)
(* ------------------------------------------------------------------ *)

type error =
  | Bad_magic
  | Truncated of { offset : int; have : int; need : int }
  | Bad_checksum of { offset : int }
  | Oversized of { offset : int; declared : int }
  | Negative_length of { offset : int; declared : int }
  | Bad_record of { offset : int; reason : string }

type tail = Clean | Torn of error
type recovered = { records : record list; tail : tail; valid : int }

let error_to_string = function
  | Bad_magic -> "not a WAL: bad or missing magic header"
  | Truncated { offset; have; need } ->
      "truncated record at offset " ^ string_of_int offset ^ ": have "
      ^ string_of_int have ^ " bytes, need " ^ string_of_int need
  | Bad_checksum { offset } ->
      "checksum mismatch at offset " ^ string_of_int offset
  | Oversized { offset; declared } ->
      "oversized record at offset " ^ string_of_int offset ^ ": declares "
      ^ string_of_int declared ^ " bytes"
  | Negative_length { offset; declared } ->
      "negative record length at offset " ^ string_of_int offset ^ ": "
      ^ string_of_int declared
  | Bad_record { offset; reason } ->
      "undecodable record at offset " ^ string_of_int offset ^ ": " ^ reason

let read_string s =
  let len = String.length s in
  let hdr = String.length magic in
  if len < hdr || not (String.equal (String.sub s 0 hdr) magic) then
    Error Bad_magic
  else begin
    let records = ref [] in
    let pos = ref hdr in
    let tail = ref Clean in
    (try
       while !pos < len do
         let offset = !pos in
         if len - offset < 8 then begin
           tail := Torn (Truncated { offset; have = len - offset; need = 8 });
           raise Exit
         end;
         let declared = Int32.to_int (String.get_int32_be s offset) in
         if declared < 0 then begin
           tail := Torn (Negative_length { offset; declared });
           raise Exit
         end;
         if declared > max_payload then begin
           tail := Torn (Oversized { offset; declared });
           raise Exit
         end;
         if len - offset - 8 < declared then begin
           tail :=
             Torn (Truncated { offset; have = len - offset - 8; need = declared });
           raise Exit
         end;
         let stored =
           Int32.to_int (String.get_int32_be s (offset + 4)) land 0xFFFFFFFF
         in
         let payload = String.sub s (offset + 8) declared in
         if crc32 payload <> stored then begin
           tail := Torn (Bad_checksum { offset });
           raise Exit
         end;
         (match decode payload with
         | Ok r -> records := r :: !records
         | Error reason ->
             tail := Torn (Bad_record { offset; reason });
             raise Exit);
         pos := offset + 8 + declared
       done
     with Exit -> ());
    Ok { records = List.rev !records; tail = !tail; valid = !pos }
  end

let read path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error reason -> Error (Bad_record { offset = 0; reason })
  | s -> read_string s

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type writer = {
  wpath : string;
  fd : Unix.file_descr;
  mutex : Mutex.t;
  sync_every : int;
  mutable pending : int;
  mutable closed : bool;
}

let write_all fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let create ?(sync_every = 32) path =
  if sync_every < 1 then invalid_arg "Dmw_wal.create: sync_every < 1";
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_all fd (Bytes.of_string magic);
  { wpath = path;
    fd;
    mutex = Mutex.create ();
    sync_every;
    pending = 0;
    closed = false }

let continue_file ?(sync_every = 32) path ~valid =
  if sync_every < 1 then invalid_arg "Dmw_wal.continue_file: sync_every < 1";
  if valid < String.length magic then
    invalid_arg "Dmw_wal.continue_file: valid prefix shorter than the header";
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd valid;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  { wpath = path;
    fd;
    mutex = Mutex.create ();
    sync_every;
    pending = 0;
    closed = false }

(* Records a recovery would act on must hit the disk before the run
   advances past them; high-rate phase checkpoints may batch. *)
let barrier = function
  | Task_phase _ | Audit_entry _ | Attempt_start _ -> false
  | Run_start _ | Task_done _ | Abort _ | Run_end _ | Resumed _
  | Serve_start _ | Job_submitted _ | Epoch_start _ | Job_done _
  | Job_failed _ | Epoch_end _ ->
      true

let fsync_locked w =
  if w.pending > 0 then begin
    Unix.fsync w.fd;
    w.pending <- 0;
    Metrics.bump "dmw_wal_fsyncs_total" 1
  end

let frame r =
  let payload = encode r in
  let b = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_int32_be b (Int32.of_int (crc32 payload));
  Buffer.add_string b payload;
  Buffer.contents b

let append w r =
  let bytes = frame r in
  Mutex_util.with_lock w.mutex (fun () ->
      if not w.closed then begin
        write_all w.fd (Bytes.of_string bytes);
        w.pending <- w.pending + 1;
        Metrics.bump "dmw_wal_records_total" 1;
        Metrics.bump "dmw_wal_bytes_total" (String.length bytes);
        if barrier r || w.pending >= w.sync_every then fsync_locked w
      end)

let sync w =
  Mutex_util.with_lock w.mutex (fun () -> if not w.closed then fsync_locked w)

let close w =
  Mutex_util.with_lock w.mutex (fun () ->
      if not w.closed then begin
        fsync_locked w;
        w.closed <- true;
        Unix.close w.fd
      end)

let path w = w.wpath
