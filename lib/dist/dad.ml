open F90d_base

type dim = {
  flb : int;
  extent : int;
  align : Affine.t;
  dist : Distrib.t;
  pdim : int option;
  mutable ghost_lo : int;
  mutable ghost_hi : int;
}

(* layouts keyed by [coord * number of dims + dim]: an int key hashes
   and compares without the polymorphic primitives a tuple key goes
   through *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k land max_int
end)

type t = {
  name : string;
  kind : Scalar.kind;
  grid : Grid.t;
  dims : dim array;
  cache : Layout.t Itbl.t;
  (* one-entry memo of a whole rank's layouts, one per dimension: almost
     every query is for the fiber's own rank, and element accesses make
     one per subscript — the hash table above is too slow there *)
  mutable lr_rank : int;
  mutable lr_layouts : Layout.t array;
}

let make ~name ~kind ~grid dims =
  let seen = Hashtbl.create 4 in
  Array.iter
    (fun d ->
      match d.pdim with
      | None -> ()
      | Some p ->
          if p < 0 || p >= Grid.ndims grid then
            Diag.bug "dad %s: grid dimension %d out of range" name p;
          if Hashtbl.mem seen p then
            Diag.bug "dad %s: two dimensions distributed over grid dim %d" name p;
          Hashtbl.add seen p ())
    dims;
  { name; kind; grid; dims; cache = Itbl.create 16; lr_rank = -1; lr_layouts = [||] }

let replicated_dim ~flb ~extent =
  {
    flb;
    extent;
    align = Affine.ident;
    dist = Distrib.make Replicated ~n:(max extent 1) ~p:1;
    pdim = None;
    ghost_lo = 0;
    ghost_hi = 0;
  }

let dist_dim form ?(align = Affine.ident) ?tn ~flb ~extent ~pdim ~p () =
  let tn =
    match tn with
    | Some n -> n
    | None -> max 1 (max (Affine.eval align 0) (Affine.eval align (extent - 1)) + 1)
  in
  { flb; extent; align; dist = Distrib.make form ~n:tn ~p; pdim = Some pdim; ghost_lo = 0; ghost_hi = 0 }

let block_dim ?align ?tn ~flb ~extent ~pdim ~p () =
  dist_dim Distrib.Block ?align ?tn ~flb ~extent ~pdim ~p ()

let cyclic_dim ?align ?tn ~flb ~extent ~pdim ~p () =
  dist_dim Distrib.Cyclic ?align ?tn ~flb ~extent ~pdim ~p ()

let name t = t.name
let kind t = t.kind
let grid t = t.grid
let dims t = t.dims
let rank t = Array.length t.dims
let is_replicated t = Array.for_all (fun d -> d.pdim = None) t.dims
let global_extents t = Array.map (fun d -> d.extent) t.dims
let global_size t = Array.fold_left (fun acc d -> acc * d.extent) 1 t.dims
let elem_bytes t = match t.kind with Scalar.Kreal -> 8 | _ -> 4

(* layouts are queried in every local-bounds computation; memoise them *)
let layout t ~dim ~coord =
  let key = (coord * Array.length t.dims) + dim in
  match Itbl.find_opt t.cache key with
  | Some l -> l
  | None ->
      let d = t.dims.(dim) in
      let l = Layout.resolve d.dist ~align:d.align ~extent:d.extent ~proc:coord in
      Itbl.add t.cache key l;
      l

let coord_of ~t ~rank dim_idx =
  let d = t.dims.(dim_idx) in
  match d.pdim with
  | None -> 0
  | Some p -> (Grid.coords_of_rank t.grid rank).(p)

let layouts_at t ~rank =
  if t.lr_rank = rank then t.lr_layouts
  else begin
    let ls =
      Array.init (Array.length t.dims) (fun dim -> layout t ~dim ~coord:(coord_of ~t ~rank dim))
    in
    t.lr_rank <- rank;
    t.lr_layouts <- ls;
    ls
  end

let layout_at t ~dim ~rank = (layouts_at t ~rank).(dim)

let local_counts t ~rank =
  Array.mapi (fun i _ -> Layout.count (layout_at t ~dim:i ~rank)) t.dims

let alloc_local t ~rank =
  let counts = local_counts t ~rank in
  let extents =
    Array.mapi (fun i c -> c + t.dims.(i).ghost_lo + t.dims.(i).ghost_hi) counts
  in
  let lb = Array.map (fun d -> -d.ghost_lo) t.dims in
  Ndarray.create t.kind ~lb extents

let zero_based t idx = Array.mapi (fun i g -> g - t.dims.(i).flb) idx

let owner_coords t idx =
  let coords = Array.make (Grid.ndims t.grid) 0 in
  Array.iteri
    (fun i d ->
      match d.pdim with
      | None -> ()
      | Some p ->
          let a0 = idx.(i) - d.flb in
          coords.(p) <- Distrib.owner d.dist (Affine.eval d.align a0))
    t.dims;
  coords

let home_rank t idx = Grid.rank_of_coords t.grid (owner_coords t idx)

let owning_ranks t idx =
  let base = owner_coords t idx in
  (* grid dims not used by this array replicate the element *)
  let used = Array.make (Grid.ndims t.grid) false in
  Array.iter (fun d -> match d.pdim with Some p -> used.(p) <- true | None -> ()) t.dims;
  let rec expand dim acc =
    if dim >= Grid.ndims t.grid then List.map (Grid.rank_of_coords t.grid) acc
    else if used.(dim) then expand (dim + 1) acc
    else
      let acc =
        List.concat_map
          (fun coords ->
            List.init (Grid.dims t.grid).(dim) (fun c ->
                let coords = Array.copy coords in
                coords.(dim) <- c;
                coords))
          acc
      in
      expand (dim + 1) acc
  in
  expand 0 [ base ]

let is_local t ~rank idx =
  let rec go i =
    i >= Array.length t.dims
    || (Layout.is_owned (layout_at t ~dim:i ~rank) (idx.(i) - t.dims.(i).flb) && go (i + 1))
  in
  go 0

let local_indices t ~rank idx =
  let n = Array.length t.dims in
  let out = Array.make n 0 in
  let rec go i =
    if i >= n then Some out
    else
      let l = layout_at t ~dim:i ~rank in
      let a0 = idx.(i) - t.dims.(i).flb in
      if Layout.is_owned l a0 then begin
        out.(i) <- Layout.local_of_global l a0;
        go (i + 1)
      end
      else None
  in
  go 0

let global_of_local t ~rank lidx =
  Array.mapi
    (fun i l -> Layout.global_of_local (layout_at t ~dim:i ~rank) l + t.dims.(i).flb)
    lidx

let storage_flat t ~rank lidx =
  let counts = local_counts t ~rank in
  let off = ref 0 and stride = ref 1 in
  Array.iteri
    (fun d c ->
      let ghost_lo = t.dims.(d).ghost_lo and ghost_hi = t.dims.(d).ghost_hi in
      let pos = lidx.(d) + ghost_lo in
      if pos < 0 || pos >= c + ghost_lo + ghost_hi then
        Diag.bug "dad %s: local index %d out of storage in dim %d" t.name lidx.(d) (d + 1);
      off := !off + (pos * !stride);
      stride := !stride * (c + ghost_lo + ghost_hi))
    counts;
  !off

let iter_local t ~rank f =
  let counts = local_counts t ~rank in
  let nd = Array.length counts in
  let total = Array.fold_left ( * ) 1 counts in
  if total > 0 then begin
    let lidx = Array.make nd 0 in
    for _ = 1 to total do
      f (global_of_local t ~rank lidx) lidx;
      let rec bump d =
        if d < nd then
          if lidx.(d) < counts.(d) - 1 then lidx.(d) <- lidx.(d) + 1
          else begin
            lidx.(d) <- 0;
            bump (d + 1)
          end
      in
      bump 0
    done
  end

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>DAD %s %a(" t.name Scalar.pp_kind t.kind;
  Array.iteri
    (fun i d ->
      if i > 0 then Format.pp_print_string ppf ", ";
      Format.fprintf ppf "%d:%d %s%s" d.flb
        (d.flb + d.extent - 1)
        (Distrib.form_name d.dist.form)
        (match d.pdim with Some p -> Printf.sprintf "@p%d" p | None -> ""))
    t.dims;
  Format.fprintf ppf ") on %a@]" Grid.pp t.grid
