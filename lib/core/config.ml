type t = {
  lambda : float;
  lambda_sweep : float list;
  k : int;
  open_frac : float;
  min_frac : float;
  bit_threshold : int;
  utilization : float;
  at_weight : float;
  am_weight : float;
  macro_weight : float;
  layout_sa : Anneal.Sa.params;
  curve_sa : Anneal.Sa.params;
  seed : int;
  sa_starts : int;
  jobs : int;
  faults : Guard.Fault.spec list;
  budgets : (string * float) list;
}

let default =
  { lambda = 0.5;
    lambda_sweep = [ 0.2; 0.5; 0.8 ];
    k = 2;
    open_frac = 0.40;
    min_frac = 0.01;
    bit_threshold = 1;
    utilization = 0.70;
    at_weight = 2.0;
    am_weight = 10.0;
    macro_weight = 50.0;
    layout_sa = { Anneal.Sa.default_params with Anneal.Sa.moves_per_plateau = 96 };
    curve_sa = Anneal.Sa.quick_params;
    seed = 1;
    sa_starts = 4;
    jobs = Parexec.default_jobs ();
    faults = [];
    budgets = [] }

let with_lambda t lambda = { t with lambda; lambda_sweep = [ lambda ] }
