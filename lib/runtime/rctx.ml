open F90d_base
open F90d_dist
open F90d_machine

type cache_entry = ..

type kcfg = { kc_blocked : bool; kc_block : int }

(* Block size for the tiled DGEMM kernels; overridable per-process for
   cache-geometry experiments.  Parsed once — the env is not re-read
   between runs. *)
let default_block =
  match Sys.getenv_opt "F90D_BLOCK" with
  | Some s -> ( match int_of_string_opt (String.trim s) with Some b when b > 0 -> b | _ -> 64)
  | None -> 64

let default_kcfg = { kc_blocked = true; kc_block = default_block }

type t = {
  eng : Engine.ctx;
  grid : Grid.t;
  sched_cache : (string, cache_entry) Hashtbl.t;
  versions : (string, int) Hashtbl.t;
  mutable split_seq : int;
  kcfg : kcfg;
  (* this rank's row/column along each grid dimension, filled on first
     use; [||] marks an entry not yet built (no grid dimension is empty) *)
  teams : int array array;
}

let make ?(kcfg = default_kcfg) eng grid =
  if Grid.size grid <> Engine.nprocs eng then
    Diag.bug "rctx: grid size %d does not cover the machine (%d nodes)" (Grid.size grid)
      (Engine.nprocs eng);
  {
    eng;
    grid;
    sched_cache = Hashtbl.create 16;
    versions = Hashtbl.create 16;
    split_seq = 0;
    kcfg;
    teams = Array.make (Grid.ndims grid) [||];
  }

let kernel_cfg t = t.kcfg

let engine t = t.eng
let grid t = t.grid
let me t = Grid.rank_of_phys t.grid (Engine.rank t.eng)
let nprocs t = Grid.size t.grid
let my_coords t = Grid.coords_of_rank t.grid (me t)
let time t = Engine.time t.eng

let team_along t ~dim =
  match t.teams.(dim) with
  | [||] ->
      let team = Grid.ranks_along t.grid ~rank:(me t) ~dim in
      t.teams.(dim) <- team;
      team
  | team -> team

let cache_find t key = Hashtbl.find_opt t.sched_cache key
let cache_store t key entry = Hashtbl.replace t.sched_cache key entry
let cache_fold t f acc = Hashtbl.fold f t.sched_cache acc
let version t key = Option.value (Hashtbl.find_opt t.versions key) ~default:0
let bump_version t key = Hashtbl.replace t.versions key (version t key + 1)
let trace t = Engine.trace t.eng
let set_stmt t ~sid ~loc = Engine.set_stmt t.eng ~sid ~loc
let current_stmt t = Engine.current_stmt t.eng

let send ?parts t ~dest ~tag payload =
  Engine.send ?parts t.eng ~dest:(Grid.phys_of_rank t.grid dest) ~tag payload

let recv t ~src ~tag = Engine.recv t.eng ~src:(Grid.phys_of_rank t.grid src) ~tag

(* Split-phase receive: the logical->physical rank translation happens at
   issue time, so a handle is engine-level and valid regardless of later
   grid lookups. *)
let irecv t ~src ~tag = Engine.irecv t.eng ~src:(Grid.phys_of_rank t.grid src) ~tag
let wait_recv t h = Engine.wait t.eng h

(* Several split-phase collectives can be in flight at once, and their
   trees may share a (source, tag) channel — FIFO matching would then
   cross-deliver between trees.  Every rank executes the same sequence
   of collective calls (SPMD), so a per-rank counter yields the same
   instance number on all ranks with no extra messages. *)
let next_split_seq t =
  t.split_seq <- t.split_seq + 1;
  t.split_seq

let relay t ~from_t ~dest ~tag payload =
  Engine.relay t.eng ~from_t ~dest:(Grid.phys_of_rank t.grid dest) ~tag payload

let charge_flops t n = Engine.charge_flops t.eng n
let charge_iops t n = Engine.charge_iops t.eng n
let charge_copy_bytes t n = Engine.charge_copy_bytes t.eng n
