(* Knob settings per application. [live] steers MaxReg (register demand),
   [ws_words] the per-block L1 footprint (cache sensitivity), [shm_words]
   the application's own shared-memory tile. [default_regs] is what the
   nvcc-like default allocation would choose — the register count the
   MaxTLP and OptTLP baselines run with. *)

let mk ~abbr ~app ~kern ~suite ~sensitive ~shape ~block ~default_regs
    ?(shm = 0) ~live ?mem_live ?(flops = 2) ?(sfu = 0) ?(naccs = 2) inputs =
  let mem_live = Option.value ~default:live mem_live in
  { App.abbr
  ; app_name = app
  ; kernel_name = kern
  ; suite_name = suite
  ; sensitive
  ; block_size = block
  ; default_regs
  ; shape
  ; knobs = { Shapes.live; mem_live; flops; sfu_every = sfu; naccs }
  ; shm_words = shm
  ; inputs
  }

let inp ?(label = "default") ~ws ~iters ~passes ~blocks ?(seed = 42) () =
  { App.ilabel = label; ws_words = ws; iters; passes; num_blocks = blocks; seed }

(* ---------- resource sensitive ---------- *)

let blk =
  mk ~abbr:"BLK" ~app:"BlackScholes" ~kern:"BlackScholesGPU" ~suite:"SDK"
    ~sensitive:true ~shape:App.Streaming ~block:128 ~default_regs:48 ~live:34
    ~mem_live:8 ~flops:4 ~sfu:4 ~naccs:4
    [ inp ~ws:8192 ~iters:3 ~passes:2 ~blocks:10 ()
    ; inp ~label:"small" ~ws:4096 ~iters:2 ~passes:1 ~blocks:8 ~seed:7 ()
    ; inp ~label:"large" ~ws:8192 ~iters:3 ~passes:2 ~blocks:12 ~seed:13 ()
    ; inp ~label:"wide" ~ws:16384 ~iters:2 ~passes:2 ~blocks:10 ~seed:21 ()
    ]

let cfd =
  mk ~abbr:"CFD" ~app:"cfd" ~kern:"cuda_compute_flux" ~suite:"Rodinia"
    ~sensitive:true ~shape:App.Tiled ~block:128 ~default_regs:54 ~live:48
    ~mem_live:4 ~flops:2 ~naccs:8
    [ inp ~ws:1024 ~iters:2 ~passes:8 ~blocks:10 ()
    ; inp ~label:"97K" ~ws:2048 ~iters:3 ~passes:3 ~blocks:8 ~seed:5 ()
    ; inp ~label:"193K" ~ws:2048 ~iters:4 ~passes:5 ~blocks:12 ~seed:9 ()
    ; inp ~label:"0.2M" ~ws:3072 ~iters:4 ~passes:4 ~blocks:10 ~seed:11 ()
    ]

let dtc =
  (* dxtc stages its block in shared memory, which leaves Algorithm 1 a
     tight spare-shared budget: its spills are only partially absorbed *)
  mk ~abbr:"DTC" ~app:"dxtc" ~kern:"compress" ~suite:"SDK" ~sensitive:true
    ~shape:App.Shared_tile ~block:64 ~default_regs:58 ~shm:1536 ~live:50
    ~mem_live:8 ~flops:6 ~naccs:6
    [ inp ~ws:2560 ~iters:5 ~passes:3 ~blocks:12 () ]

let esp =
  mk ~abbr:"ESP" ~app:"EstimatePi" ~kern:"initRNG" ~suite:"SDK" ~sensitive:true
    ~shape:App.Streaming ~block:128 ~default_regs:47 ~live:38 ~mem_live:4
    ~flops:8 ~sfu:5 ~naccs:4
    [ inp ~ws:1024 ~iters:2 ~passes:2 ~blocks:10 () ]

let fdtd =
  mk ~abbr:"FDTD" ~app:"FDTD3d" ~kern:"FiniteDifferences" ~suite:"SDK"
    ~sensitive:true ~shape:App.Stencil ~block:128 ~default_regs:58 ~live:46
    ~mem_live:8 ~flops:3 ~naccs:8
    [ inp ~ws:4096 ~iters:4 ~passes:6 ~blocks:8 ()
    ; inp ~label:"small" ~ws:4096 ~iters:3 ~passes:4 ~blocks:6 ~seed:31 ()
    ]

let hst =
  mk ~abbr:"HST" ~app:"hotspot" ~kern:"calculate_temp" ~suite:"Rodinia"
    ~sensitive:true ~shape:App.Shared_tile ~block:256 ~default_regs:44
    ~shm:2048 ~live:28 ~mem_live:8 ~flops:3 ~naccs:6
    [ inp ~ws:2048 ~iters:2 ~passes:3 ~blocks:8 () ]

let kmn =
  mk ~abbr:"KMN" ~app:"kmeans" ~kern:"invert_mapping" ~suite:"Rodinia"
    ~sensitive:true ~shape:App.Tiled ~block:256 ~default_regs:23 ~live:4
    ~mem_live:4 ~flops:1 ~naccs:4
    [ inp ~ws:7680 ~iters:5 ~passes:12 ~blocks:8 ()
    ; inp ~label:"kdd" ~ws:7680 ~iters:4 ~passes:8 ~blocks:8 ~seed:17 ()
    ; inp ~label:"819k" ~ws:7680 ~iters:5 ~passes:16 ~blocks:10 ~seed:23 ()
    ]

let lbm =
  mk ~abbr:"LBM" ~app:"lbm" ~kern:"StreamCollide" ~suite:"Parboil"
    ~sensitive:true ~shape:App.Streaming ~block:128 ~default_regs:36 ~live:18
    ~flops:2 ~naccs:4
    [ inp ~ws:16384 ~iters:4 ~passes:1 ~blocks:10 () ]

let spmv =
  mk ~abbr:"SPMV" ~app:"spmv" ~kern:"spmv_jds" ~suite:"Parboil" ~sensitive:true
    ~shape:App.Gather ~block:128 ~default_regs:34 ~live:14 ~mem_live:8 ~flops:1
    ~naccs:4
    [ inp ~ws:4096 ~iters:4 ~passes:2 ~blocks:10 ()
    ; inp ~label:"dense" ~ws:2048 ~iters:4 ~passes:3 ~blocks:10 ~seed:41 ()
    ]

let ste =
  mk ~abbr:"STE" ~app:"stencil" ~kern:"block2D" ~suite:"Parboil" ~sensitive:true
    ~shape:App.Stencil ~block:128 ~default_regs:56 ~live:46 ~mem_live:6 ~flops:2
    ~naccs:8
    [ inp ~ws:3072 ~iters:4 ~passes:3 ~blocks:10 ()
    ; inp ~label:"large" ~ws:3072 ~iters:4 ~passes:5 ~blocks:12 ~seed:37 ()
    ]

let stm =
  mk ~abbr:"STM" ~app:"streamcluster" ~kern:"compute_cost" ~suite:"Rodinia"
    ~sensitive:true ~shape:App.Reduction ~block:128 ~default_regs:36 ~shm:128
    ~live:14 ~mem_live:8 ~flops:2 ~naccs:4
    [ inp ~ws:6144 ~iters:6 ~passes:5 ~blocks:8 () ]

(* ---------- resource insensitive ---------- *)

let light_input = inp ~ws:768 ~iters:2 ~passes:2 ~blocks:8 ()

let bak =
  mk ~abbr:"BAK" ~app:"backprop" ~kern:"layerforward" ~suite:"Rodinia"
    ~sensitive:false ~shape:App.Reduction ~block:128 ~default_regs:28 ~shm:128
    ~live:10 ~naccs:2 [ light_input ]

let bfs =
  mk ~abbr:"BFS" ~app:"bfs" ~kern:"kernel" ~suite:"Rodinia" ~sensitive:false
    ~shape:App.Gather ~block:128 ~default_regs:27 ~live:8 ~flops:1
    [ light_input ]

let bt =
  mk ~abbr:"B+T" ~app:"b+tree" ~kern:"findK" ~suite:"Rodinia" ~sensitive:false
    ~shape:App.Gather ~block:128 ~default_regs:29 ~live:10 ~flops:1
    [ light_input ]

let gau =
  mk ~abbr:"GAU" ~app:"gaussian" ~kern:"Fan1" ~suite:"Rodinia" ~sensitive:false
    ~shape:App.Streaming ~block:128 ~default_regs:25 ~live:8 ~flops:2
    [ light_input ]

let lud =
  mk ~abbr:"LUD" ~app:"lud" ~kern:"diagonal" ~suite:"Rodinia" ~sensitive:false
    ~shape:App.Shared_tile ~block:64 ~default_regs:27 ~shm:512 ~live:10
    ~flops:2 [ inp ~ws:512 ~iters:2 ~passes:2 ~blocks:8 () ]

let mum =
  mk ~abbr:"MUM" ~app:"mummergpu" ~kern:"mummergpuKernel" ~suite:"Rodinia"
    ~sensitive:false ~shape:App.Gather ~block:128 ~default_regs:31 ~live:12
    ~flops:1 [ light_input ]

let need =
  mk ~abbr:"NEED" ~app:"nw" ~kern:"cuda_shared_1" ~suite:"Rodinia"
    ~sensitive:false ~shape:App.Shared_tile ~block:64 ~default_regs:27 ~shm:1024
    ~live:10 ~flops:2 [ inp ~ws:1024 ~iters:2 ~passes:2 ~blocks:8 () ]

let ptf =
  mk ~abbr:"PTF" ~app:"particlefilter" ~kern:"kernel" ~suite:"Rodinia"
    ~sensitive:false ~shape:App.Gather ~block:128 ~default_regs:29 ~live:10
    ~flops:2 [ light_input ]

let path =
  mk ~abbr:"PATH" ~app:"pathfinder" ~kern:"dynproc" ~suite:"Rodinia"
    ~sensitive:false ~shape:App.Tiled ~block:128 ~default_regs:28 ~live:10
    ~flops:2 [ light_input ]

let sgm =
  mk ~abbr:"SGM" ~app:"sgemm" ~kern:"mysgemmNT" ~suite:"Parboil"
    ~sensitive:false ~shape:App.Shared_tile ~block:128 ~default_regs:29
    ~shm:1024 ~live:12 ~flops:3 [ inp ~ws:1024 ~iters:2 ~passes:2 ~blocks:8 () ]

let srad =
  mk ~abbr:"SRAD" ~app:"srad" ~kern:"srad_cuda" ~suite:"Rodinia"
    ~sensitive:false ~shape:App.Stencil ~block:128 ~default_regs:30 ~live:10
    ~flops:2 [ light_input ]

let sensitive = [ blk; cfd; dtc; esp; fdtd; hst; kmn; lbm; spmv; ste; stm ]
let insensitive = [ bak; bfs; bt; gau; lud; mum; need; ptf; path; sgm; srad ]
let all = sensitive @ insensitive
let abbrs = List.map (fun a -> a.App.abbr) all

let find abbr =
  match List.find_opt (fun a -> a.App.abbr = abbr) all with
  | Some a -> a
  | None -> raise Not_found
