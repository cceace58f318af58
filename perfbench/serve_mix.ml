(* serve_mix: an in-process daemon (Server.start) driven by one client
   connection in a closed loop.

   The sources are generated programs (F90d_fuzz.Gen seeds 1000..1399 for
   the timed stream, 1900..2049 for the warm-up), so the program set and
   every count derived from it are the same for all seeds.

   The mix follows the probe of the benchmark's specification: every
   source is sent as {compile, compile, run, run}.  No recorded traffic
   exists, so the 1:1 compile-to-run ratio and the single repeat of each
   request are assumptions, not measurements.  The seed interleaves the
   sources' requests, keeping each source's four in that order, so a
   repeat comes a seeded distance after its first request.

   One episode: a fresh store directory, Service and daemon, a warm-up
   pass over the warm-up sources (set-up), then the timed stream, then
   shutdown.  The first compile of a source misses L1 and L2, its first
   run misses L3; the others hit.  Episodes repeat until the time budget
   is spent; all of them see the same cache temperatures. *)

module S = F90d_serve
module Json = S.Json
module Refeval = F90d_fuzz.Refeval

let nprocs = 4
let pool_seeds = List.init 400 (fun i -> 1000 + i)
(* 600 warm-up requests make the set-up about 0.6 s: with 200, the set-up
   times of one run's parts differed by up to 1.6x. *)
let warm_seeds = List.init 150 (fun i -> 1900 + i)

type source = {
  gseed : int;
  text : string;
  expect : Refeval.result;
  mutable runs : (string * fingerprint) list;
      (* by L3 temperature: a run with preloaded schedules (L3 hit) skips
         the inspector's messages *)
}

and fingerprint = {
  digest : string;  (* of the finals *)
  elapsed : float;
  messages : int;
  bytes : int;
  wait : float;
  hidden : float;
}

let make_source gseed =
  let text = F90d_fuzz.Gen.print ~nprocs (F90d_fuzz.Gen.generate ~seed:gseed) in
  { gseed; text; expect = Refeval.run ~file:"<serve_mix>" text; runs = [] }

let cold_run s = List.assoc_opt "miss" s.runs

(* ------------------------------------------------------------------ *)
(* Result check: the run reply's finals against the reference          *)
(* evaluator, rendered the way the service renders them                *)
(* ------------------------------------------------------------------ *)

let array_json (a : F90d_base.Ndarray.t) =
  let ints v = Json.List (List.map (fun n -> Json.Int n) (Array.to_list v)) in
  let kind, data =
    match a.F90d_base.Ndarray.data with
    | F90d_base.Ndarray.Reals v ->
        ("real", Json.List (List.map (fun x -> Json.Float x) (Array.to_list v)))
    | F90d_base.Ndarray.Ints v -> ("integer", ints v)
    | F90d_base.Ndarray.Logs v ->
        ("logical", Json.List (List.map (fun b -> Json.Bool b) (Array.to_list v)))
  in
  Json.Obj
    [
      ("kind", Json.Str kind);
      ("lb", ints a.F90d_base.Ndarray.lb);
      ("extents", ints a.F90d_base.Ndarray.extents);
      ("data", data);
    ]

let scalar_json = function
  | F90d_base.Scalar.Int n -> Json.Int n
  | F90d_base.Scalar.Real x -> Json.Float x
  | F90d_base.Scalar.Log b -> Json.Bool b
  | F90d_base.Scalar.Str s -> Json.Str s

let same_fields expected got =
  match got with
  | Some (Json.Obj fields) ->
      List.length fields = List.length expected
      && List.for_all
           (fun (name, v) ->
             match List.assoc_opt name fields with
             | Some g -> Json.to_string g = Json.to_string v
             | None -> false)
           expected
  | _ -> expected = []

let run_matches src reply =
  let r = src.expect in
  let finals = Json.mem reply "finals" in
  Json.mem reply "ok" = Some (Json.Bool true)
  && Option.bind (Json.mem reply "output") Json.str = Some r.Refeval.r_output
  && same_fields
       (List.map (fun (n, a) -> (n, array_json a)) r.Refeval.r_finals)
       (Option.bind finals (fun f -> Json.mem f "arrays"))
  && same_fields
       (List.map (fun (n, s) -> (n, scalar_json s)) r.Refeval.r_scalars)
       (Option.bind finals (fun f -> Json.mem f "scalars"))

(* ------------------------------------------------------------------ *)
(* One episode                                                         *)
(* ------------------------------------------------------------------ *)

type reply = {
  op : string;
  latency_s : float;
  l1 : string;
  l2 : string;
  l3 : string;
  host_ms : float;  (* run replies only *)
  sched_builds : int;
  sched_hits : int;
}

let field_str j path =
  List.fold_left (fun acc k -> Option.bind acc (fun j -> Json.mem j k)) (Some j) path
  |> fun v -> Option.value (Option.bind v Json.str) ~default:""

let field_num j k = Option.value (Option.bind (Json.mem j k) Json.float) ~default:0.
let field_int j k = Option.value (Option.bind (Json.mem j k) Json.int) ~default:0

let request conn ~op src =
  let fields =
    [ ("op", Json.Str op); ("source", Json.Str src.text); ("nprocs", Json.Int nprocs) ]
    @ if op = "run" then [ ("finals", Json.Bool true) ] else []
  in
  let t0 = Meas.now () in
  let reply = S.Client.request conn (Json.Obj fields) in
  (reply, Meas.now () -. t0)

(* Send one request and check its reply. *)
let send conn (src, op) =
  let reply, latency_s = Meas.span ("Client.request " ^ op) (fun () -> request conn ~op src) in
  let ok =
    if op = "compile" then Json.mem reply "ok" = Some (Json.Bool true)
    else begin
      let ok = Meas.span "check" (fun () -> run_matches src reply) in
      let fingerprint =
        {
          digest = field_str reply [ "finals_digest" ];
          elapsed = field_num reply "elapsed_s";
          messages = field_int reply "messages";
          bytes = field_int reply "bytes";
          wait = field_num reply "recv_wait_s";
          hidden = field_num reply "recv_wait_hidden_s";
        }
      in
      let l3 = field_str reply [ "cache"; "l3" ] in
      (match List.assoc_opt l3 src.runs with
      | None -> src.runs <- (l3, fingerprint) :: src.runs
      | Some f when f = fingerprint -> ()
      | Some _ -> Check.fail "serve_mix: source %d: L3 %s run replies differ" src.gseed l3);
      ok
    end
  in
  Check.op ok (Printf.sprintf "serve_mix %s of generated program %d" op src.gseed);
  {
    op;
    latency_s;
    l1 = field_str reply [ "cache"; "l1" ];
    l2 = field_str reply [ "cache"; "l2" ];
    l3 = field_str reply [ "cache"; "l3" ];
    host_ms = field_num reply "host_ms";
    sched_builds = field_int reply "sched_builds";
    sched_hits = field_int reply "sched_hits";
  }

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

type episode = { setup_s : float; stream_s : float; replies : reply list; traced : bool }

let episode ~dir ~index ~stream ~warm ~traced =
  let store_dir = Filename.concat dir (Printf.sprintf "store-%d-%d" (Unix.getpid ()) index) in
  let sock = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  if Sys.file_exists store_dir then remove_tree store_dir;
  Gc.compact ();
  let was_tracing = !Meas.tracing in
  Meas.tracing := traced;
  let t0 = Meas.now () in
  let service = S.Service.create ~store:(S.Store.create ~dir:store_dir) () in
  let server = S.Server.start ~workers:1 ~service ~sock_path:sock () in
  (* The client runs on its own domain, so its blocking reads never hand
     the main domain's runtime lock back and forth with the daemon's
     connection thread. *)
  let client () =
    let conn = S.Client.connect sock in
    List.iter (fun req -> ignore (send conn req)) warm;
    let setup_s = Meas.now () -. t0 in
    let t1 = Meas.now () in
    let replies =
      List.mapi (fun i req -> Meas.with_req ((index * 100_000) + i) (fun () -> send conn req)) stream
    in
    let stream_s = Meas.now () -. t1 in
    S.Client.close conn;
    (setup_s, stream_s, replies)
  in
  let setup_s, stream_s, replies = Domain.join (Domain.spawn client) in
  Meas.tracing := was_tracing;
  Printf.eprintf "serve_mix episode %d: set-up %.3f s, %d requests in %.3f s%s\n%!" index setup_s
    (List.length replies) stream_s
    (if traced then " (traced)" else "");
  S.Server.stop server;
  S.Server.wait server;
  remove_tree store_dir;
  { setup_s; stream_s; replies; traced }

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let count p l = List.length (List.filter p l)

(* Every source's {compile, compile, run, run}, interleaved in a seeded
   order that keeps each source's own four in sequence. *)
let requests_of st sources =
  let seen = Hashtbl.create 512 in
  shuffle st (List.concat_map (fun s -> [ s; s; s; s ]) sources)
  |> List.map (fun s ->
         let k = Option.value (Hashtbl.find_opt seen s.gseed) ~default:0 in
         Hashtbl.replace seen s.gseed (k + 1);
         (s, if k < 2 then "compile" else "run"))

(* Returns what this process measured, with the first (cold) episode's
   set-up as its set-up, and its per-layer metrics. *)
let run ~dir ~seed ~seconds ~traced =
  let pool = List.map make_source pool_seeds in
  let st = Random.State.make [| seed; 0x5e |] in
  let warm = requests_of st (List.map make_source warm_seeds) in
  let stream = requests_of st pool in
  (* Episodes until the budget is spent, at least two for the
     high-water mark; the traced run alternates traced and plain
     episodes. *)
  let t_start = Meas.now () in
  let rss = ref 0. in
  let rec loop acc i =
    let elapsed = Meas.now () -. t_start in
    let last = match acc with e :: _ -> e.setup_s +. e.stream_s | [] -> 0. in
    if i >= Sim.min_samples && elapsed +. last > seconds then List.rev acc
    else begin
      let e = episode ~dir ~index:i ~stream ~warm ~traced:(traced && i mod 2 = 0) in
      if i = Sim.min_samples - 1 then rss := Meas.peak_rss_mb ();
      loop (e :: acc) (i + 1)
    end
  in
  let episodes = loop [] 0 in
  (* every episode sees the same cache temperatures and schedule counts *)
  List.iter
    (fun e ->
      let misses level = count (fun r -> level r = "miss") e.replies in
      Check.exact_int "serve.l1_misses" (misses (fun r -> r.l1));
      Check.exact_int "serve.l2_misses" (misses (fun r -> r.l2));
      Check.exact_int "serve.l3_misses" (misses (fun r -> r.l3));
      Check.exact_int "runtime.sched_builds"
        (List.fold_left (fun a r -> a + r.sched_builds) 0 e.replies))
    episodes;
  (* simulated totals: one run of each distinct source, in pool order *)
  let cold =
    List.filter_map
      (fun s ->
        match cold_run s with
        | Some f ->
            Check.exact (Printf.sprintf "serve.src%d" s.gseed)
              (Printf.sprintf "%s %.17g %d %d" f.digest f.elapsed f.messages f.bytes);
            Some f
        | None ->
            Check.fail "serve_mix: source %d never ran" s.gseed;
            None)
      pool
  in
  let sum_cold f = List.fold_left (fun a c -> a +. f c) 0. cold in
  let sim_s = sum_cold (fun c -> c.elapsed) in
  let sim_msgs = List.fold_left (fun a c -> a + c.messages) 0 cold in
  Check.exact_float "sim_s" sim_s;
  Check.exact_int "sim_msgs" sim_msgs;
  let plain = List.filter (fun e -> not e.traced) episodes in
  let latencies_ms ?(p = fun _ -> true) es =
    List.concat_map (fun e -> List.filter p e.replies) es
    |> List.map (fun r -> 1000. *. r.latency_s)
  in
  let requests es = List.fold_left (fun a e -> a + List.length e.replies) 0 es in
  let part =
    {
      Parts.setup_s = (List.hd episodes).setup_s;
      run_s = List.map (fun ms -> ms /. 1000.) (latencies_ms ~p:(fun r -> r.op = "run") plain);
      req_ms = latencies_ms plain;
      requests = requests plain;
      wall_s = Meas.sum (List.map (fun e -> e.stream_s) plain);
      sim_s;
      sim_msgs;
      rss_mb = !rss;
    }
  in
  let layers () =
    let probed = List.filter (fun e -> e.traced) episodes in
    let replies = (List.hd episodes).replies in
    let hit_share l =
      Meas.share (count (fun r -> l r = "hit") replies) (count (fun r -> l r <> "") replies)
    in
    let runs = List.filter (fun r -> r.op = "run") replies in
    let compiles = List.filter (fun r -> r.op = "compile") replies in
    let p50 f l = Meas.median (List.map f l) in
    let builds = List.fold_left (fun a r -> a + r.sched_builds) 0 runs in
    let hits = List.fold_left (fun a r -> a + r.sched_hits) 0 runs in
    let c = Layers.compile (List.map (fun s -> s.text) pool) in
    (* one in-process compile and run of every distinct source, as the
       service does it, with the poll counter and GC counters around it *)
    let polls = ref 0 and kruns = ref 0 and kblocked = ref 0 and kfalls = ref 0 in
    let run_s, gc =
      Layers.gc_delta (fun () ->
          Meas.sum
            (List.map
               (fun s ->
                 let compiled = F90d.Driver.compile s.text in
                 let r, dt =
                   Meas.time (fun () ->
                       Meas.span "Driver.run" (fun () ->
                           F90d.Driver.run ~collect_finals:true ~model:F90d_machine.Model.ipsc860
                             ~topology:F90d_machine.Topology.Hypercube ~jobs:1
                             ~poll:(fun () -> incr polls)
                             ~nprocs compiled))
                 in
                 let st = r.F90d.Driver.stats in
                 kruns := !kruns + st.F90d_machine.Stats.kernel_runs;
                 kblocked := !kblocked + st.F90d_machine.Stats.kernel_blocked;
                 kfalls := !kfalls + st.F90d_machine.Stats.kernel_fallbacks;
                 dt)
               pool))
    in
    let kruns = !kruns and kblocked = !kblocked and kfalls = !kfalls in
    [
      ("frontend.parse_ms", c.Layers.parse_ms, "ms");
      ("frontend.sema_ms", c.Layers.sema_ms, "ms");
      ("frontend.alloc_mw", c.Layers.front_alloc_mw, "Mwords");
      ("codegen.lower_ms", c.Layers.lower_ms, "ms");
      ("codegen.alloc_mw", c.Layers.lower_alloc_mw, "Mwords");
      ("opt.passes_ms", c.Layers.passes_ms, "ms");
      ("ir.f77_bytes", float_of_int c.Layers.f77_bytes, "bytes");
      ("exec.polls", float_of_int !polls, "count");
      ("exec.ns_per_poll", run_s *. 1e9 /. float_of_int (max 1 !polls), "ns");
      ("kernel.runs", float_of_int kruns, "count");
      ("kernel.blocked_share", Meas.share kblocked kruns, "ratio");
      ("kernel.fallbacks", float_of_int kfalls, "count");
      ("runtime.bcast_ms", Layers.bcast_ms nprocs, "ms");
      ("runtime.sched_builds", float_of_int builds, "count");
      ("runtime.sched_hit_share", Meas.share hits (hits + builds), "ratio");
      ("machine.msgs", float_of_int sim_msgs, "count");
      ("machine.bytes", sum_cold (fun c -> float_of_int c.bytes), "bytes");
      ("machine.recv_wait_s", sum_cold (fun c -> c.wait), "virtual_s");
      ("machine.recv_wait_hidden_s", sum_cold (fun c -> c.hidden), "virtual_s");
      ("machine.spawn_ms", Layers.spawn_ms nprocs, "ms");
      ("gc.alloc_mw", gc.Layers.alloc_w /. 1e6, "Mwords");
      ("gc.direct_major_mw", gc.Layers.direct_major_w /. 1e6, "Mwords");
      ("gc.major_collections", float_of_int gc.Layers.majors, "count");
      ("gc.top_heap_mb", Layers.top_heap_mb (), "MB");
      ("serve.l1_hit_share", hit_share (fun r -> r.l1), "ratio");
      ("serve.l2_hit_share", hit_share (fun r -> r.l2), "ratio");
      ("serve.l3_hit_share", hit_share (fun r -> r.l3), "ratio");
      ( "serve.compile_miss_p50_ms",
        p50 (fun r -> 1000. *. r.latency_s) (List.filter (fun r -> r.l1 = "miss") compiles),
        "ms" );
      ( "serve.compile_hit_p50_ms",
        p50 (fun r -> 1000. *. r.latency_s) (List.filter (fun r -> r.l1 = "hit") compiles),
        "ms" );
      ("serve.run_p50_ms", p50 (fun r -> 1000. *. r.latency_s) runs, "ms");
      ("serve.run_host_p50_ms", p50 (fun r -> r.host_ms) runs, "ms");
      ("serve.overhead_p50_ms", p50 (fun r -> (1000. *. r.latency_s) -. r.host_ms) runs, "ms");
      ( "trace.overhead_share",
        Meas.median (latencies_ms probed) /. Meas.median (latencies_ms plain),
        "ratio" );
    ]
  in
  (part, layers)
