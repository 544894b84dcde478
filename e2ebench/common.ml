(* Shared plumbing of the benchmark: clock, sample buffers, order
   statistics, host facts and a minimal JSON printer. *)

(* CLOCK_MONOTONIC in nanoseconds; an OCaml int holds ~146 years. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* --- growable float buffer ---------------------------------------------- *)

module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* --- order statistics ----------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in (0, 1]. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))

let median a =
  let n = Array.length a in
  if n = 0 then nan
  else
    let s = sorted a in
    if n land 1 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* A timing as the benchmark reports it: median, p99 and sample count,
   plus every sample when there are few (per-repetition values). *)
type summary = { median : float; p99 : float; count : int; values : float array }

let summarize ?(keep_values = true) a =
  {
    median = median a;
    p99 = percentile a 0.99;
    count = Array.length a;
    values = (if keep_values then a else [||]);
  }

(* --- JSON ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Num f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | Str s -> Ocube_obs.Json.escape_to buf s
  | Arr l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      l;
    Buffer.add_char buf ']'
  | Obj l ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        write buf (Str k);
        Buffer.add_char buf ':';
        write buf v)
      l;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 4096 in
  write buf j;
  Buffer.contents buf

let summary_json s =
  Obj
    [
      ("median", Num s.median);
      ("p99", Num s.p99);
      ("samples", Int s.count);
      ("values", Arr (Array.to_list (Array.map (fun v -> Num v) s.values)));
    ]

(* --- host ------------------------------------------------------------------ *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let field_value line =
  match String.index_opt line ':' with
  | None -> ""
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))

(* Peak resident set size of this process, from the kernel's high-water
   mark, in MiB. *)
let peak_rss_mb () =
  match
    List.find_opt (String.starts_with ~prefix:"VmHWM:") (read_lines "/proc/self/status")
  with
  | None -> nan
  | Some l -> (
    match String.split_on_char ' ' (field_value l) with
    | kb :: _ -> (
      match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> nan)
    | [] -> nan)

let host () =
  let cpuinfo = read_lines "/proc/cpuinfo" in
  let nproc =
    List.length (List.filter (String.starts_with ~prefix:"processor") cpuinfo)
  in
  let model =
    match List.find_opt (String.starts_with ~prefix:"model name") cpuinfo with
    | Some l -> field_value l
    | None -> "unknown"
  in
  Obj
    [
      ("nproc", Int nproc);
      ("cpu_model", Str model);
      ("ocaml_version", Str Sys.ocaml_version);
    ]

(* --- results ---------------------------------------------------------------- *)

(* What a workload hands back to [Main]: its metrics (name, value),
   its operation counts, whether every output check held,
   and a free-form report with every per-repetition value. *)
type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  report : (string * json) list;
}

(* Every per-layer metric the traced run prints, in output order. A
   workload reports 0 for a layer it does not exercise. *)
let per_layer_names =
  [
    ("sim.events", "count");
    ("sim.events_per_acquire", "count");
    ("sim.peak_pending", "count");
    ("sim.self_s", "s");
    ("net.sends", "count");
    ("net.delivered", "count");
    ("net.dropped", "count");
    ("net.send_s", "s");
    ("net.sends.request", "count");
    ("net.sends.token", "count");
    ("net.sends.test", "count");
    ("net.sends.test_answer", "count");
    ("net.sends.census", "count");
    ("net.sends.census_reply", "count");
    ("net.sends.enquiry", "count");
    ("net.sends.enquiry_answer", "count");
    ("net.sends.anomaly", "count");
    ("net.sends.void", "count");
    ("mutex.handler_calls", "count");
    ("mutex.handler_self_s", "s");
    ("mutex.timers_set", "count");
    ("mutex.timers_cancelled", "count");
    ("mutex.timers_fired", "count");
    ("mutex.useful_share", "ratio");
    ("mutex.searches_started", "count");
    ("mutex.search_nodes_tested", "count");
    ("mutex.token_regenerations", "count");
    ("mutex.unavailable_vt", "delta");
    ("wire.encode_ns", "ns");
    ("wire.decode_ns", "ns");
    ("proc.hop_us", "us");
    ("proc.frames", "count");
    ("proc.fork_s", "s");
    ("proc.reap_s", "s");
    ("check.gen_s", "s");
    ("check.build_s", "s");
    ("check.run_s", "s");
    ("check.messages", "count");
    ("check.scenarios_per_s", "1/s");
    ("model.states", "count");
    ("model.transitions", "count");
    ("model.reduction", "ratio");
    ("model.max_depth", "count");
    ("model.states_per_s", "1/s");
    ("trace.overhead_s", "s");
  ]

(* The ten message categories the open-cube core sends, for the
   [net.sends.<category>] counters. *)
let categories =
  [
    "request"; "token"; "test"; "test_answer"; "census"; "census_reply";
    "enquiry"; "enquiry_answer"; "anomaly"; "void";
  ]
