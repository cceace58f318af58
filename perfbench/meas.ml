(* Measurement helpers shared by the workloads: wall clock, order
   statistics, GC counters, process memory, and the in-memory span
   recorder of the traced run. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear interpolation between closest ranks (numpy's default), so a
   p90 over a few samples still moves smoothly between them. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      if i >= Array.length a - 1 then a.(Array.length a - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let share num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Allocated words: minor + major - promoted, i.e. minor-heap allocation
   plus the blocks that skipped the minor heap (arrays over 256 words go
   straight to the major heap and never show in the minor count). *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* A /proc/self/status field in kB (0 where the interface is absent). *)
let status_kb key =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0
        | line ->
            let k = String.length key in
            if String.length line > k && String.sub line 0 k = key then
              Scanf.sscanf (String.sub line k (String.length line - k)) " %d" Fun.id
            else scan ()
      in
      let kb = scan () in
      close_in ic;
      kb

let peak_rss_mb () = float_of_int (status_kb "VmHWM:") /. 1024.

(* ------------------------------------------------------------------ *)
(* Spans (traced run only)                                             *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 at top level *)
  req : int;  (* request / sample id the span belongs to, -1 outside one *)
  t0 : float;
  mutable t1 : float;
}

let tracing = ref false
let spans : span list ref = ref []
let open_spans : int list ref = ref []
let next_id = ref 0
let current_req = ref (-1)
let origin = ref 0.

let start_tracing () =
  tracing := true;
  origin := now ()

(* [span name f] runs [f]; when tracing, it also records [name]'s start,
   end, enclosing span and request id.  Untraced runs take the first
   branch only. *)
let span name f =
  if not !tracing then f ()
  else begin
    let s =
      {
        id = !next_id;
        name;
        parent = (match !open_spans with p :: _ -> p | [] -> -1);
        req = !current_req;
        t0 = now ();
        t1 = nan;
      }
    in
    incr next_id;
    open_spans := s.id :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now ();
        open_spans := List.tl !open_spans;
        spans := s :: !spans)
      f
  end

let with_req id f =
  let saved = !current_req in
  current_req := id;
  Fun.protect ~finally:(fun () -> current_req := saved) f

(* Per span name: (count, total seconds, self seconds), where self time is
   a span's duration minus the part its children cover. *)
let self_times () =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0. +. (s.t1 -. s.t0)))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self = d -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      let n, tot, slf = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, slf +. self))
    !spans;
  Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

(* Chrome trace_event JSON, the format Trace.to_chrome_json writes for the
   simulated machine: "X" complete events, microsecond timestamps. *)
let write_chrome path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"cat\":\"host\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        s.name
        ((s.t0 -. !origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.req)
    (List.sort (fun a b -> compare a.id b.id) !spans);
  output_string oc "\n]}\n";
  close_out oc
