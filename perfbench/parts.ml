(* An untraced run is split into parts, each a fresh process of this
   executable run one after another.  Every part does its own cold set-up
   and a share of the timed phase and writes what it measured to standard
   output; the run pools the parts' samples.

   The host's speed differs between processes by up to 1.5x, and a process
   keeps its speed for its whole life: samples of one process agree to a
   few percent while two processes started seconds apart can differ by
   that much.  A run of one process therefore read one of two speeds, and
   its medians were bimodal across runs.  Pooling several processes per
   run averages over them, as the samples within a process average over
   the rest of the noise. *)

type part = {
  setup_s : float;  (* this process's set-up *)
  run_s : float list;  (* host seconds of each timed run (serve_mix: run requests) *)
  req_ms : float list;  (* latency of each timed request *)
  requests : int;
  wall_s : float;  (* timed wall time over which [requests] completed *)
  sim_s : float;
  sim_msgs : int;
  rss_mb : float;
}

(* Worker side: the part's figures, its exact counts and its checks. *)
let write p =
  Printf.printf "setup\t%.17g\n" p.setup_s;
  List.iter (Printf.printf "run\t%.17g\n") p.run_s;
  List.iter (Printf.printf "req\t%.17g\n") p.req_ms;
  Printf.printf "timed\t%d\t%.17g\n" p.requests p.wall_s;
  Printf.printf "sim\t%.17g\t%d\n" p.sim_s p.sim_msgs;
  Printf.printf "rss\t%.17g\n" p.rss_mb;
  Hashtbl.iter (fun k v -> Printf.printf "exact\t%s\t%s\n" k v) Check.exact_values;
  Printf.printf "checks\t%d\t%d\n" !Check.attempted !Check.failed

(* Run side: one part's output.  Its checks count here and its exact
   counts must agree with the other parts'. *)
let read lines =
  let setup = ref None and run = ref [] and req = ref [] and timed = ref None in
  let sim = ref None and rss = ref None and checked = ref false in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ "setup"; v ] -> setup := float_of_string_opt v
      | [ "run"; v ] -> run := float_of_string v :: !run
      | [ "req"; v ] -> req := float_of_string v :: !req
      | [ "timed"; n; w ] -> timed := Some (int_of_string n, float_of_string w)
      | [ "sim"; s; m ] -> sim := Some (float_of_string s, int_of_string m)
      | [ "rss"; v ] -> rss := float_of_string_opt v
      | [ "exact"; k; v ] -> Check.exact k v
      | [ "checks"; a; f ] ->
          Check.attempted := !Check.attempted + int_of_string a;
          Check.failed := !Check.failed + int_of_string f;
          checked := true
      | _ -> ())
    lines;
  match (!setup, !timed, !sim, !rss, !checked) with
  | Some setup_s, Some (requests, wall_s), Some (sim_s, sim_msgs), Some rss_mb, true ->
      Some
        {
          setup_s;
          run_s = List.rev !run;
          req_ms = List.rev !req;
          requests;
          wall_s;
          sim_s;
          sim_msgs;
          rss_mb;
        }
  | _ -> None

(* Run [argv] as a part and wait for it; [None] if it failed. *)
let spawn argv =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  close_in ic;
  match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> read lines | _ -> None

(* The end-to-end metrics of the pooled parts. *)
let e2e parts =
  let all f = List.concat_map f parts in
  let req = all (fun p -> p.req_ms) in
  let first = List.hd parts in
  [
    ("setup_s", Meas.median (List.map (fun p -> p.setup_s) parts), "s");
    ("run_p50_s", Meas.median (all (fun p -> p.run_s)), "s");
    ("sim_s", first.sim_s, "virtual_s");
    ("sim_msgs", float_of_int first.sim_msgs, "count");
    ("req_p50_ms", Meas.median req, "ms");
    ("req_p90_ms", Meas.quantile 0.9 req, "ms");
    ( "req_per_s",
      float_of_int (List.fold_left (fun a p -> a + p.requests) 0 parts)
      /. Meas.sum (List.map (fun p -> p.wall_s) parts),
      "1/s" );
    ("peak_rss_mb", Meas.median (List.map (fun p -> p.rss_mb) parts), "MB");
  ]
