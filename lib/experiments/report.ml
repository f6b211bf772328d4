type experiment = {
  name : string;
  description : string;
  run : mode:Exp_common.mode -> seed:int -> jobs:int -> string;
}

let all =
  [
    { name = Exp_table1.name; description = Exp_table1.description; run = Exp_table1.run };
    {
      name = Exp_tradeoff.name;
      description = Exp_tradeoff.description;
      run = Exp_tradeoff.run;
    };
    { name = Exp_figures.name; description = Exp_figures.description; run = Exp_figures.run };
    {
      name = Exp_silent_lb.name;
      description = Exp_silent_lb.description;
      run = Exp_silent_lb.run;
    };
    {
      name = Exp_quadratic_lb.name;
      description = Exp_quadratic_lb.description;
      run = Exp_quadratic_lb.run;
    };
    {
      name = Exp_nonuniform.name;
      description = Exp_nonuniform.description;
      run = Exp_nonuniform.run;
    };
    { name = Exp_reset.name; description = Exp_reset.description; run = Exp_reset.run };
    { name = Exp_scale.name; description = Exp_scale.description; run = Exp_scale.run };
    { name = Exp_exact.name; description = Exp_exact.description; run = Exp_exact.run };
    {
      name = Exp_ablation.name;
      description = Exp_ablation.description;
      run = Exp_ablation.run;
    };
    { name = Exp_loose.name; description = Exp_loose.description; run = Exp_loose.run };
    {
      name = Exp_topology.name;
      description = Exp_topology.description;
      run = Exp_topology.run;
    };
    {
      name = Exp_scenarios.name;
      description = Exp_scenarios.description;
      run = Exp_scenarios.run;
    };
    {
      name = Exp_epidemic.name;
      description = Exp_epidemic.description;
      run = Exp_epidemic.run;
    };
    { name = Exp_chaos.name; description = Exp_chaos.description; run = Exp_chaos.run };
    {
      name = Exp_engines.name;
      description = Exp_engines.description;
      run = Exp_engines.run;
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all
