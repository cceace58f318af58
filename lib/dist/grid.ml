open F90d_base

(* [all] is the identity team 0..size-1, built once per grid and shared
   read-only by every rank (and every domain) of a run. *)
type t = { dims : int array; phys_of_rank : int array; rank_of_phys : int array; all : int array }

let size_of dims = Array.fold_left ( * ) 1 dims

let make ?phys_of_rank dims =
  Array.iter (fun d -> if d < 1 then Diag.bug "grid: dimension extent %d < 1" d) dims;
  let n = size_of dims in
  let phys = match phys_of_rank with Some p -> p | None -> Array.init n Fun.id in
  if Array.length phys <> n then Diag.bug "grid: embedding size mismatch";
  let inv = Array.make n (-1) in
  Array.iteri
    (fun rank node ->
      if node < 0 || node >= n || inv.(node) <> -1 then Diag.bug "grid: embedding is not a permutation";
      inv.(node) <- rank)
    phys;
  { dims; phys_of_rank = phys; rank_of_phys = inv; all = Array.init n Fun.id }

let dims t = t.dims
let ndims t = Array.length t.dims
let size t = size_of t.dims
let all_ranks t = t.all

let rank_of_coords t coords =
  if Array.length coords <> ndims t then Diag.bug "grid: coordinate rank mismatch";
  let rank = ref 0 and stride = ref 1 in
  for d = 0 to ndims t - 1 do
    if coords.(d) < 0 || coords.(d) >= t.dims.(d) then
      Diag.bug "grid: coordinate %d out of range in dim %d" coords.(d) d;
    rank := !rank + (coords.(d) * !stride);
    stride := !stride * t.dims.(d)
  done;
  !rank

let coords_of_rank t rank =
  if rank < 0 || rank >= size t then Diag.bug "grid: rank %d out of range" rank;
  let coords = Array.make (ndims t) 0 in
  let r = ref rank in
  for d = 0 to ndims t - 1 do
    coords.(d) <- !r mod t.dims.(d);
    r := !r / t.dims.(d)
  done;
  coords

let phys_of_rank t rank = t.phys_of_rank.(rank)
let rank_of_phys t node = t.rank_of_phys.(node)

let ranks_along t ~rank ~dim =
  let coords = coords_of_rank t rank in
  Array.init t.dims.(dim) (fun c ->
      let coords = Array.copy coords in
      coords.(dim) <- c;
      rank_of_coords t coords)

let neighbour t ~rank ~dim ~delta =
  let coords = coords_of_rank t rank in
  let c = coords.(dim) + delta in
  if c < 0 || c >= t.dims.(dim) then None
  else begin
    let coords = Array.copy coords in
    coords.(dim) <- c;
    Some (rank_of_coords t coords)
  end

let pp ppf t =
  Format.fprintf ppf "grid(%s)"
    (String.concat "x" (Array.to_list (Array.map string_of_int t.dims)))
