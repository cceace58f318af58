(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads: gauss_p16, stencil_p4096, serve_mix (see NOTES.md).  The last
   line of standard output is one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics when --trace is 0,
   the per-layer metrics when it is 1.  The traced run also writes its
   spans as Chrome trace_event JSON to perfbench/out/spans-NAME-SEED.json and a
   self-time table to standard error.

   An untraced run starts its parts (Parts) as

     main.exe --workload NAME --seed N --seconds S/K --trace 0 --part

   which measure in this fresh process and write their figures to
   standard output. *)

module Json = F90d_serve.Json

(* Every per-layer metric, with its unit.  A workload that does not
   exercise a layer reports 0 for it (serve.* outside serve_mix). *)
let layer_units =
  [
    ("frontend.parse_ms", "ms");
    ("frontend.sema_ms", "ms");
    ("frontend.alloc_mw", "Mwords");
    ("codegen.lower_ms", "ms");
    ("codegen.alloc_mw", "Mwords");
    ("opt.passes_ms", "ms");
    ("ir.f77_bytes", "bytes");
    ("exec.polls", "count");
    ("exec.ns_per_poll", "ns");
    ("kernel.runs", "count");
    ("kernel.blocked_share", "ratio");
    ("kernel.fallbacks", "count");
    ("runtime.bcast_ms", "ms");
    ("runtime.sched_builds", "count");
    ("runtime.sched_hit_share", "ratio");
    ("machine.msgs", "count");
    ("machine.bytes", "bytes");
    ("machine.recv_wait_s", "virtual_s");
    ("machine.recv_wait_hidden_s", "virtual_s");
    ("machine.spawn_ms", "ms");
    ("gc.alloc_mw", "Mwords");
    ("gc.direct_major_mw", "Mwords");
    ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB");
    ("serve.l1_hit_share", "ratio");
    ("serve.l2_hit_share", "ratio");
    ("serve.l3_hit_share", "ratio");
    ("serve.compile_miss_p50_ms", "ms");
    ("serve.compile_hit_p50_ms", "ms");
    ("serve.run_p50_ms", "ms");
    ("serve.run_host_p50_ms", "ms");
    ("serve.overhead_p50_ms", "ms");
    ("trace.overhead_share", "ratio");
  ]

(* Per-layer counts that must repeat exactly across runs of a build. *)
let exact_layers =
  [
    "ir.f77_bytes";
    "exec.polls";
    "kernel.runs";
    "kernel.blocked_share";
    "kernel.fallbacks";
    "machine.msgs";
    "machine.bytes";
    "machine.recv_wait_s";
    "machine.recv_wait_hidden_s";
    "gc.direct_major_mw";
  ]

let workloads = [ "gauss_p16"; "stencil_p4096"; "serve_mix" ]

(* Spans, exact-count files and serve_mix's stores, relative to the
   checkout root the benchmark runs from. *)
let out = "perfbench/out"

(* Parts per untraced run, each a fresh process with its own cold set-up
   and an equal share of the timed phase: fewer for stencil_p4096, whose
   set-up holds a 4 s run and whose part needs two 4 s samples. *)
let parts = function "stencil_p4096" -> 3 | _ -> 5

let usage () =
  prerr_endline
    "usage: main.exe --workload gauss_p16|stencil_p4096|serve_mix --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let part = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--part" :: rest -> part := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, traced =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when List.mem !workload workloads && t > 0. && not (tr && !part) ->
        (s, t, tr)
    | _ -> usage ()
  in
  (try Sys.mkdir out 0o755 with Sys_error _ -> ());
  let measure () =
    match !workload with
    | "gauss_p16" -> Sim.run Sim.gauss ~name:"gauss_p16" ~seed ~seconds ~traced
    | "stencil_p4096" -> Sim.run Sim.stencil ~name:"stencil_p4096" ~seed ~seconds ~traced
    | _ -> Serve_mix.run ~dir:out ~seed ~seconds ~traced
  in
  if !part then begin
    Parts.write (fst (measure ()));
    exit 0
  end;
  let metrics =
    if not traced then begin
      let n = parts !workload in
      let argv =
        [| Sys.executable_name; "--workload"; !workload; "--seed"; string_of_int seed;
           "--seconds"; Printf.sprintf "%.17g" (seconds /. float_of_int n); "--trace"; "0"; "--part" |]
      in
      let measured =
        List.init n (fun i ->
            match Parts.spawn argv with
            | Some p ->
                Printf.eprintf "part %d: set-up %.3f s, %d samples\n%!" i p.Parts.setup_s
                  (List.length p.Parts.run_s);
                Some p
            | None ->
                Check.fail "%s: part %d failed" !workload i;
                None)
        |> List.filter_map Fun.id
      in
      if measured = [] then begin
        prerr_endline "perfbench: every part failed";
        exit 1
      end;
      Parts.e2e measured
    end
    else begin
      Meas.start_tracing ();
      let got = (snd (measure ())) () in
      let all =
        List.map
          (fun (n, u) ->
            match List.find_opt (fun (m, _, _) -> m = n) got with Some m -> m | None -> (n, 0., u))
          layer_units
      in
      List.iter (fun (n, v, _) -> if List.mem n exact_layers then Check.exact_float n v) all;
      prerr_endline "span                                count    total_ms     self_ms";
      List.iter
        (fun (name, n, tot, self) ->
          Printf.eprintf "%-34s %6d %11.3f %11.3f\n" name n (1000. *. tot) (1000. *. self))
        (Meas.self_times ());
      let spans = Filename.concat out (Printf.sprintf "spans-%s-%d.json" !workload seed) in
      Meas.write_chrome spans;
      Printf.eprintf "spans written to %s\n" spans;
      all
    end
  in
  let digest = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let kind = if traced then "layers" else "e2e" in
  Check.persist
    ~file:(Filename.concat out (Printf.sprintf "exact-%s-%s-%s.tsv" !workload kind digest));
  List.iter
    (fun (n, v, u) ->
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not a number" n);
      Printf.eprintf "  %-28s %16.6f %s\n" n v u)
    metrics;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (!Check.failed = 0));
        ("attempted", Json.Int !Check.attempted);
        ("failed", Json.Int !Check.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)
