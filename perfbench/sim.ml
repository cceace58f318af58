(* The two simulation workloads: repeated checked runs of one compiled
   program on the simulated iPSC/860 hypercube, sequential engine.

   gauss_p16      Programs.gauss ~n:255 on 16 PEs (Table 4's program at the
                  paper's machine size); kernel- and interpreter-bound.
   stencil_p4096  Programs.jacobi2d ~n:256 ~iters:4 on a 64x64 grid of
                  4096 PEs; engine- and collective-bound.

   The seed picks the initial data, never the control flow, so the
   simulated figures and every exact count are the same for all seeds. *)

open F90d
open F90d_machine
module Scalar = F90d_base.Scalar

type expected = { output : string; scalars : (string * float) list }

type workload = {
  nprocs : int;
  source : seed:int -> string;
  reference : seed:int -> string -> expected;  (* untimed, once per process *)
}

let replace ~sub ~by s =
  let ls = String.length s and lsub = String.length sub in
  let rec find i =
    if i + lsub > ls then failwith ("source template lacks " ^ String.escaped sub)
    else if String.sub s i lsub = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + lsub) (ls - i - lsub)

let print_line values =
  String.concat " " (List.map (fun v -> Format.asprintf "%a" Scalar.pp (Scalar.Real v)) values)
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* gauss_p16                                                           *)
(* ------------------------------------------------------------------ *)

let gauss_n = 255

(* The dominant entry of column J sits in row J+1 for odd J and J-1 for
   even J, and in row N for J = N.  4096 exceeds any column's
   off-diagonal sum (254 * 9), and elimination keeps a column-dominant
   matrix column-dominant, so partial pivoting picks the same rows for
   every seed: odd steps below N swap rows K and K+1, the others find the
   pivot in place.  The pivot scan's running maximum changes at rows K and
   K+1 on a swap step and at row K only on the others, so the scan, too,
   takes the same branches for every seed. *)
let gauss_dom = 4096.
let gauss_dom_row = "MIN(J + 1 - 2*MOD(J + 1, 2), N)"
let gauss_dom_row_of ~n j = min (j + 1 - (2 * ((j + 1) mod 2))) n

type coeffs = { ca : int; cb : int; cc : int; cd : int; ce : int }

(* Each coefficient keeps its number of digits for every seed, so the
   source text, and the emitted node program, have the same length. *)
let coeffs seed =
  let st = Random.State.make [| seed; gauss_n |] in
  let pick lo hi = lo + Random.State.int st (hi - lo + 1) in
  let ca = pick 10 18 in
  let cb = pick 10 18 in
  let cc = pick 10 18 in
  let cd = pick 1 6 in
  let ce = pick 1 6 in
  { ca; cb; cc; cd; ce }

(* Programs.gauss with seeded data, plus a final fetch of the solution
   column into the replicated W and three reductions of it, so every run
   reports checksums as final scalars and on its PRINT line.  The fetch
   is one more column multicast. *)
let gauss_source ~seed =
  let k = coeffs seed in
  Programs.gauss ~n:gauss_n
  |> replace ~sub:"MOD(7*I + 11*J, 19) - 9 + MERGE(30.0, 0.0, I == J)"
       ~by:
         (Printf.sprintf "MOD(%d*I + %d*J + %d, 19) - 9 + MERGE(%.1f, 0.0, I == %s)" k.ca k.cb
            k.cc gauss_dom gauss_dom_row)
  |> replace ~sub:"A(I, N+1) = MOD(3*I, 7) + 1"
       ~by:(Printf.sprintf "A(I, N+1) = MOD(%d*I + %d, 7) + 1" k.cd k.ce)
  |> replace ~sub:"REAL PIVOT, PIVMAX, T1" ~by:"REAL PIVOT, PIVMAX, T1, XSUM, XMAX, XMIN"
  |> replace ~sub:"      END DO\n      END\n"
       ~by:
         "      END DO\n\
         \      FORALL (I = 1:N) W(I) = A(I, N+1)\n\
         \      XSUM = SUM(W)\n\
         \      XMAX = MAXVAL(W)\n\
         \      XMIN = MINVAL(W)\n\
         \      PRINT *, XSUM, XMAX, XMIN\n\
         \      END\n"

(* Plain OCaml Gauss-Jordan elimination with partial pivoting, doing the
   program's floating-point operations in the program's order, so the
   answer is bit-identical. *)
let gauss_reference ~seed _source =
  let k = coeffs seed and n = gauss_n in
  let a = Array.make_matrix (n + 1) (n + 2) 0. in
  for i = 1 to n do
    for j = 1 to n do
      a.(i).(j) <-
        float_of_int ((((k.ca * i) + (k.cb * j) + k.cc) mod 19) - 9)
        +. if i = gauss_dom_row_of ~n j then gauss_dom else 0.
    done;
    a.(i).(n + 1) <- float_of_int ((((k.cd * i) + k.ce) mod 7) + 1)
  done;
  let f = Array.make (n + 1) 0. in
  for kk = 1 to n do
    let pivmax = ref (-1.) and indxr = ref kk in
    for i = kk to n do
      if Float.abs a.(i).(kk) > !pivmax then begin
        pivmax := Float.abs a.(i).(kk);
        indxr := i
      end
    done;
    if !indxr <> kk then begin
      let row = a.(kk) in
      a.(kk) <- a.(!indxr);
      a.(!indxr) <- row
    end;
    let pivot = a.(kk).(kk) in
    for j = kk to n + 1 do
      a.(kk).(j) <- a.(kk).(j) /. pivot
    done;
    for i = 1 to n do
      f.(i) <- a.(i).(kk)
    done;
    for i = 1 to n do
      if i <> kk then begin
        for j = kk + 1 to n + 1 do
          a.(i).(j) <- a.(i).(j) -. (f.(i) *. a.(kk).(j))
        done;
        a.(i).(kk) <- 0.
      end
    done
  done;
  let x = List.init n (fun i -> a.(i + 1).(n + 1)) in
  let xsum = List.fold_left ( +. ) 0. x in
  let xmax = List.fold_left Float.max neg_infinity x in
  let xmin = List.fold_left Float.min infinity x in
  {
    output = print_line [ xsum; xmax; xmin ];
    scalars = [ ("XSUM", xsum); ("XMAX", xmax); ("XMIN", xmin) ];
  }

let gauss = { nprocs = 16; source = gauss_source; reference = gauss_reference }

(* ------------------------------------------------------------------ *)
(* stencil_p4096                                                       *)
(* ------------------------------------------------------------------ *)

(* Programs.jacobi2d with seeded initial values, plus a SUM checksum that
   rank 0 prints.  Every value is a multiple of 1/256 below 13, so the
   sum is exact in any reduction order. *)
let stencil_source ~seed =
  let st = Random.State.make [| seed; 4096 |] in
  let a = 1 + Random.State.int st 9 in
  let b = 1 + Random.State.int st 9 in
  let c = Random.State.int st 10 in
  Programs.jacobi2d ~n:256 ~iters:4 ~p:64 ~q:64
  |> replace ~sub:"A(I, J) = MOD(I*5 + J*3, 13)"
       ~by:(Printf.sprintf "A(I, J) = MOD(I*%d + J*%d + %d, 13)" a b c)
  |> replace ~sub:"      INTEGER T\n" ~by:"      INTEGER T\n      REAL CK\n"
  |> replace ~sub:"      END DO\n      END\n"
       ~by:"      END DO\n      CK = SUM(A)\n      PRINT *, CK\n      END\n"

(* The sequential reference evaluator of the fuzzing oracle. *)
let stencil_reference ~seed:_ source =
  let r = F90d_fuzz.Refeval.run ~file:"<stencil>" source in
  let ck =
    match List.assoc_opt "CK" r.F90d_fuzz.Refeval.r_scalars with
    | Some (Scalar.Real x) -> x
    | _ -> failwith "reference evaluator returned no CK"
  in
  { output = r.F90d_fuzz.Refeval.r_output; scalars = [ ("CK", ck) ] }

let stencil = { nprocs = 4096; source = stencil_source; reference = stencil_reference }

(* ------------------------------------------------------------------ *)
(* The measured loop                                                   *)
(* ------------------------------------------------------------------ *)

let run_program ?poll ~nprocs compiled =
  Driver.run ~collect_finals:false ~model:Model.ipsc860 ~topology:Topology.Hypercube ~jobs:1 ?poll
    ~nprocs compiled

let matches exp (r : Driver.run_result) =
  let o = r.Driver.outcome in
  o.F90d_exec.Interp.output = exp.output
  && List.for_all
       (fun (name, v) ->
         match List.assoc_opt name o.F90d_exec.Interp.final_scalars with
         | Some (Scalar.Real x) -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float v)
         | _ -> false)
       exp.scalars

(* The figures every run of the workload must reproduce exactly. *)
let record_exact (r : Driver.run_result) =
  let s = r.Driver.stats in
  Check.exact_float "sim_s" r.Driver.elapsed;
  Check.exact_int "sim_msgs" s.Stats.messages;
  Check.exact_int "machine.bytes" s.Stats.bytes;
  Check.exact_float "machine.recv_wait_s" s.Stats.recv_wait;
  Check.exact_float "machine.recv_wait_hidden_s" s.Stats.recv_wait_hidden;
  Check.exact_int "runtime.sched_builds" s.Stats.sched_builds;
  Check.exact_int "runtime.sched_hits" s.Stats.sched_hits;
  Check.exact_int "kernel.runs" s.Stats.kernel_runs;
  Check.exact_int "kernel.blocked" s.Stats.kernel_blocked;
  Check.exact_int "kernel.fallbacks" s.Stats.kernel_fallbacks

(* The timed phase always runs this many samples.  The high-water mark is
   read after them, so it does not depend on how many more fit in the
   budget. *)
let min_samples = 2

type sample = {
  result : Driver.run_result;
  run_s : float;
  op_s : float;  (* run + result check *)
  gc : Layers.gc_delta;
  polls : int;  (* 0 unless traced *)
  traced : bool;
}

(* Set-up: generate the source, compile, one checked warm-up run.  It is
   the first of its process, so lazy start-up costs land here, not in a
   sample. *)
let setup (w : workload) ~name ~seed expected =
  Gc.compact ();
  let t0 = Meas.now () in
  let compiled = Driver.compile (w.source ~seed) in
  let r = run_program ~nprocs:w.nprocs compiled in
  let dt = Meas.now () -. t0 in
  Check.op (matches expected r) (name ^ " warm-up run");
  record_exact r;
  (compiled, dt)

(* Returns what this process measured and its per-layer metrics. *)
let run (w : workload) ~name ~seed ~seconds ~traced =
  let expected = w.reference ~seed (w.source ~seed) in
  let compiled, own_setup = setup w ~name ~seed expected in
  let sample ~traced =
    Gc.compact ();
    let polls = ref 0 in
    let poll = if traced then Some (fun () -> incr polls) else None in
    let t0 = Meas.now () in
    let (r, gc), run_s =
      Meas.time (fun () ->
          Meas.span "Driver.run" (fun () ->
              Layers.gc_delta (fun () -> run_program ?poll ~nprocs:w.nprocs compiled)))
    in
    let ok = Meas.span "check" (fun () -> matches expected r) in
    let op_s = Meas.now () -. t0 in
    Check.op ok (name ^ " run");
    record_exact r;
    Check.exact_float "gc.direct_major_mw" (gc.Layers.direct_major_w /. 1e6);
    if traced then Check.exact_int "exec.polls" !polls;
    { result = r; run_s; op_s; gc; polls = !polls; traced }
  in
  (* Timed phase: whole samples only, stopping before one would overrun
     the budget; the traced run alternates probed and plain samples so
     the probes' overhead can be read off. *)
  let t_start = Meas.now () in
  let rss = ref 0. in
  let rec loop acc i =
    let elapsed = Meas.now () -. t_start in
    let last = match acc with s :: _ -> s.op_s | [] -> 0. in
    if i >= min_samples && elapsed +. last > seconds then List.rev acc
    else begin
      let traced = traced && i mod 2 = 0 in
      let s = Meas.with_req i (fun () -> Meas.span "sample" (fun () -> sample ~traced)) in
      Printf.eprintf "%s sample %d: %.3f s%s\n%!" name i s.run_s (if traced then " (probed)" else "");
      if i = min_samples - 1 then rss := Meas.peak_rss_mb ();
      loop (s :: acc) (i + 1)
    end
  in
  let samples = loop [] 0 in
  let wall = Meas.now () -. t_start in
  let last = (List.hd (List.rev samples)).result in
  let stats = last.Driver.stats in
  let plain = List.filter (fun s -> not s.traced) samples in
  let run_p50 l = Meas.median (List.map (fun s -> s.run_s) l) in
  let part =
    {
      Parts.setup_s = own_setup;
      run_s = List.map (fun s -> s.run_s) plain;
      req_ms = List.map (fun s -> 1000. *. s.op_s) plain;
      requests = List.length samples;
      wall_s = wall;
      sim_s = last.Driver.elapsed;
      sim_msgs = stats.Stats.messages;
      rss_mb = !rss;
    }
  in
  let layers () =
    let probed = List.filter (fun s -> s.traced) samples in
    let polls = (List.hd probed).polls in
    let c = Layers.compile [ w.source ~seed ] in
    let gc f = Meas.median (List.map (fun s -> f s.gc) samples) in
    [
      ("frontend.parse_ms", c.Layers.parse_ms, "ms");
      ("frontend.sema_ms", c.Layers.sema_ms, "ms");
      ("frontend.alloc_mw", c.Layers.front_alloc_mw, "Mwords");
      ("codegen.lower_ms", c.Layers.lower_ms, "ms");
      ("codegen.alloc_mw", c.Layers.lower_alloc_mw, "Mwords");
      ("opt.passes_ms", c.Layers.passes_ms, "ms");
      ("ir.f77_bytes", float_of_int c.Layers.f77_bytes, "bytes");
      ("exec.polls", float_of_int polls, "count");
      ("exec.ns_per_poll", run_p50 probed *. 1e9 /. float_of_int (max 1 polls), "ns");
      ("kernel.runs", float_of_int stats.Stats.kernel_runs, "count");
      ( "kernel.blocked_share",
        Meas.share stats.Stats.kernel_blocked stats.Stats.kernel_runs,
        "ratio" );
      ("kernel.fallbacks", float_of_int stats.Stats.kernel_fallbacks, "count");
      ("runtime.bcast_ms", Layers.bcast_ms w.nprocs, "ms");
      ("runtime.sched_builds", float_of_int stats.Stats.sched_builds, "count");
      ( "runtime.sched_hit_share",
        Meas.share stats.Stats.sched_hits (stats.Stats.sched_hits + stats.Stats.sched_builds),
        "ratio" );
      ("machine.msgs", float_of_int stats.Stats.messages, "count");
      ("machine.bytes", float_of_int stats.Stats.bytes, "bytes");
      ("machine.recv_wait_s", stats.Stats.recv_wait, "virtual_s");
      ("machine.recv_wait_hidden_s", stats.Stats.recv_wait_hidden, "virtual_s");
      ("machine.spawn_ms", Layers.spawn_ms w.nprocs, "ms");
      ("gc.alloc_mw", gc (fun g -> g.Layers.alloc_w) /. 1e6, "Mwords");
      ("gc.direct_major_mw", gc (fun g -> g.Layers.direct_major_w) /. 1e6, "Mwords");
      ("gc.major_collections", gc (fun g -> float_of_int g.Layers.majors), "count");
      ("gc.top_heap_mb", Layers.top_heap_mb (), "MB");
      ("trace.overhead_share", run_p50 probed /. run_p50 plain, "ratio");
    ]
  in
  (part, layers)
