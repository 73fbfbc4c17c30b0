#include "core/itask.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "tensor/ops.h"

namespace itask::core {

namespace {

/// Classes whose typical instances are relevant to the task (estimated by
/// sampling instance parameterisations) — used to bias the distillation
/// corpus toward mission-relevant objects.
std::vector<data::ObjectClass> task_biased_pool(const data::TaskSpec& spec,
                                                Rng& rng) {
  std::vector<data::ObjectClass> pool;
  std::vector<data::ObjectClass> relevant;
  for (int64_t c = 1; c < data::kNumClasses; ++c) {
    const auto cls = static_cast<data::ObjectClass>(c);
    pool.push_back(cls);
    int hits = 0;
    constexpr int kSamples = 16;
    for (int s = 0; s < kSamples; ++s) {
      float r, g, b;
      data::class_base_color(cls, r, g, b);
      const float scale = rng.uniform(0.45f, 1.0f);
      const bool moving = rng.bernoulli(0.3);
      const Tensor attrs =
          data::resolve_instance_attributes(cls, scale, r, g, b, moving);
      if (spec.is_relevant(attrs)) ++hits;
    }
    if (hits * 2 >= kSamples) relevant.push_back(cls);
  }
  // Over-sample relevant classes 3:1 so the student sees its mission often.
  for (int rep = 0; rep < 3; ++rep)
    pool.insert(pool.end(), relevant.begin(), relevant.end());
  return pool;
}

/// Post-training-quantizes a trained multi-task student, calibrated on
/// `options.calibration_scenes` scenes drawn from `rng`. The one INT8 build
/// of prepare_quantized and load_deployment.
std::shared_ptr<const quant::QuantizedVit> build_quantized(
    const vit::VitModel& student, const FrameworkOptions& options, Rng& rng) {
  const data::Dataset calib = data::Dataset::generate(
      data::SceneGenerator(options.generator), options.calibration_scenes, rng);
  return std::make_shared<quant::QuantizedVit>(
      student, calib.make_batch(calib.all_indices()).images,
      options.quantization);
}

}  // namespace

Framework::Framework(FrameworkOptions options)
    : options_(std::move(options)),
      rng_(options_.seed),
      oracle_(options_.oracle) {
  Rng init_rng = rng_.fork();
  teacher_ = std::make_unique<vit::VitModel>(options_.teacher_config,
                                             init_rng);
  options_.decoder.grid = options_.generator.grid;
  options_.decoder.image_size = options_.generator.image_size;
}

void Framework::pretrain_teacher() {
  ITASK_CHECK(!teacher_trained_, "Framework: teacher already trained");
  Rng data_rng = rng_.fork();
  const data::SceneGenerator generator(options_.generator);
  corpus_ = data::Dataset::generate(generator, options_.corpus_size, data_rng);
  distill::train(*teacher_, corpus_, options_.teacher_training);
  teacher_trained_ = true;
}

TaskHandle Framework::define_task(const data::TaskSpec& spec) {
  TaskHandle handle;
  handle.slot = next_slot_++;
  handle.id = kg::TaskId{handle.slot};
  handle.spec = spec;
  handle.graph = oracle_.generate(spec.description);
  const kg::NodeId task_node = handle.graph.find("task", kg::NodeType::kTask);
  ITASK_CHECK(task_node != kg::kInvalidNode,
              "Framework: oracle produced no task node");
  handle.compiled =
      kg::compile_task(handle.graph, task_node,
                       options_.teacher_config.num_attributes,
                       options_.teacher_config.num_classes);
  // Register the compiled form so publish() can hand every defined task to
  // serving snapshots — the table only ever grows.
  task_table_.add(handle.id, spec.name, handle.compiled);
  return handle;
}

TaskHandle Framework::define_task_from_text(const std::string& description) {
  data::TaskSpec spec;
  spec.id = -1;
  spec.name = "adhoc";
  spec.description = description;
  spec.positive = Tensor({data::kNumAttributes});
  spec.negative = Tensor({data::kNumAttributes});
  return define_task(spec);
}

distill::FitStats Framework::prepare_task_specific(
    const TaskHandle& task) {
  ITASK_CHECK(teacher_trained_, "Framework: pretrain_teacher() first");
  Rng fork = rng_.fork();
  // Task-biased corpus: mission-relevant classes over-represented.
  data::GeneratorOptions gen_options = options_.generator;
  gen_options.class_pool = task_biased_pool(task.spec, fork);
  const data::SceneGenerator generator(gen_options);
  const data::Dataset task_corpus =
      data::Dataset::generate(generator, options_.task_corpus_size, fork);

  // A fresh model object every time: published snapshots may still be
  // serving the previous student for this slot, so it is replaced, never
  // retrained in place.
  auto student =
      std::make_shared<vit::VitModel>(options_.student_config, fork);
  const distill::FitStats stats = distill::distill(
      *teacher_, *student, task_corpus, options_.distillation, fork,
      &task.spec);
  students_[task.slot] = std::move(student);
  return stats;
}

void Framework::prepare_quantized() {
  ITASK_CHECK(teacher_trained_, "Framework: pretrain_teacher() first");
  Rng fork = rng_.fork();
  // 1. Distil a task-agnostic multi-task student (reusing corpus scenes).
  const int64_t subset =
      std::min(options_.multitask_corpus_size, corpus_.size());
  std::vector<data::Scene> scenes;
  scenes.reserve(static_cast<size_t>(subset));
  for (int64_t i = 0; i < subset; ++i) scenes.push_back(corpus_.scene(i));
  const data::Dataset mt_corpus(std::move(scenes));
  // Fresh objects (never retrained/requantized in place): published
  // snapshots may still be serving the previous quantized model.
  multitask_student_ =
      std::make_shared<vit::VitModel>(options_.student_config, fork);
  distill::distill(*teacher_, *multitask_student_, mt_corpus,
                   options_.multitask_distillation, fork);
  // 2. Post-training quantization with calibration.
  quantized_ = build_quantized(*multitask_student_, options_, fork);
}

DetectionPipeline Framework::pipeline() const {
  return DetectionPipeline{options_.decoder, options_.matcher,
                           options_.relevance_threshold, options_.nms_iou};
}

std::vector<std::vector<detect::Detection>> Framework::decode_and_match(
    const vit::VitOutput& output, const TaskHandle& task,
    ConfigKind config) const {
  // Shared with DeploymentSnapshot::infer_batch — the element-wise identity
  // between the serial paths and the published serving path is by
  // construction, not by parallel maintenance of two copies.
  const std::vector<const kg::CompiledTask*> tasks(
      static_cast<size_t>(output.objectness.shape()[0]), &task.compiled);
  return core::decode_and_match(
      output, tasks, /*use_rel_head=*/config == ConfigKind::kTaskSpecific,
      pipeline());
}

vit::VitOutput Framework::run_deployed(const Tensor& images,
                                       const TaskHandle& task,
                                       ConfigKind config) const {
  ITASK_CHECK(images.ndim() == 4, "detect_batch: need [B, C, H, W]");
  if (config == ConfigKind::kTaskSpecific) {
    auto it = students_.find(task.slot);
    ITASK_CHECK(it != students_.end(),
                "detect_batch: prepare_task_specific() first");
    return it->second->infer(images);
  }
  ITASK_CHECK(quantized_ != nullptr,
              "detect_batch: prepare_quantized() first");
  return quantized_->forward(images);
}

std::vector<std::vector<detect::Detection>> Framework::detect_batch(
    const Tensor& images, const TaskHandle& task, ConfigKind config) {
  return decode_and_match(run_deployed(images, task, config), task, config);
}

std::vector<detect::Detection> Framework::detect(const Tensor& image,
                                                 const TaskHandle& task,
                                                 ConfigKind config) {
  ITASK_CHECK(image.ndim() == 3, "detect: need [C, H, W]");
  Shape batched = image.shape();
  batched.insert(batched.begin(), 1);
  auto result = detect_batch(image.reshape(batched), task, config);
  return std::move(result.front());
}

std::vector<std::vector<detect::GroundTruthObject>> Framework::ground_truth(
    const data::Dataset& dataset, const data::TaskSpec& spec) {
  std::vector<std::vector<detect::GroundTruthObject>> truth;
  truth.reserve(static_cast<size_t>(dataset.size()));
  for (int64_t i = 0; i < dataset.size(); ++i) {
    std::vector<detect::GroundTruthObject> per_scene;
    for (const data::ObjectInstance& o : dataset.scene(i).objects) {
      detect::GroundTruthObject g;
      g.box = o.box;
      g.cls = data::class_index(o.cls);
      g.task_relevant = spec.is_relevant(o.attributes);
      per_scene.push_back(std::move(g));
    }
    truth.push_back(std::move(per_scene));
  }
  return truth;
}

detect::EvalResult Framework::evaluate(const data::Dataset& dataset,
                                       const TaskHandle& task,
                                       ConfigKind config) {
  return evaluate(dataset, task, config, [&](const Tensor& images) {
    return run_deployed(images, task, config);
  });
}

detect::EvalResult Framework::evaluate(const data::Dataset& dataset,
                                       const TaskHandle& task,
                                       ConfigKind config,
                                       const ForwardFn& forward) const {
  ITASK_CHECK(dataset.size() > 0, "evaluate: empty dataset");
  std::vector<std::vector<detect::Detection>> detections;
  detections.reserve(static_cast<size_t>(dataset.size()));
  constexpr int64_t kChunk = 16;
  const auto indices = dataset.all_indices();
  for (int64_t start = 0; start < dataset.size(); start += kChunk) {
    const int64_t end = std::min(dataset.size(), start + kChunk);
    const data::Batch batch = dataset.make_batch(
        std::span<const int64_t>(indices.data() + start,
                                 static_cast<size_t>(end - start)));
    auto chunk = decode_and_match(forward(batch.images), task, config);
    for (auto& d : chunk) detections.push_back(std::move(d));
  }
  return detect::evaluate(detections, ground_truth(dataset, task.spec),
                          options_.eval_iou);
}

Shape Framework::expected_input_shape() const {
  const vit::ViTConfig& c = options_.student_config;
  return Shape{c.channels, c.image_size, c.image_size};
}

std::shared_ptr<const DeploymentSnapshot> Framework::publish() {
  // Publish-time weight pre-packing: snapshots are immutable and shared, so
  // every captured FP32 student's weights are packed into the kernel's
  // panel layout once here, and requests served from the snapshot skip the
  // per-call B pack entirely. (The quantized model needs nothing: its
  // weights were packed when prepare_quantized() built it.) Safe by
  // construction: a model's first prepack happens before any snapshot
  // holding it exists, prepack is a write-free no-op once packed (so
  // re-publishing a model an installed snapshot already serves races with
  // nothing), and prepare_* replaces model objects rather than retraining
  // them, so a cache never goes stale on the serving path.
  for (auto& [slot, student] : students_) student->prepack_for_serving();
  std::map<kg::TaskId, std::shared_ptr<const vit::VitModel>> students;
  for (const auto& [slot, student] : students_) {
    students.emplace(kg::TaskId{slot}, student);
  }
  return std::make_shared<const DeploymentSnapshot>(
      ++next_version_, expected_input_shape(), task_table_,
      std::move(students), quantized_, pipeline());
}

PolicyDecision Framework::choose_configuration(
    const SituationProfile& profile) const {
  return itask::core::choose_configuration(profile, task_specific_model_mb(),
                                           quantized_model_mb());
}

vit::VitModel& Framework::teacher() {
  ITASK_CHECK(teacher_ != nullptr, "Framework: no teacher");
  return *teacher_;
}

vit::VitModel& Framework::student_for(const TaskHandle& task) {
  auto it = students_.find(task.slot);
  ITASK_CHECK(it != students_.end(), "Framework: no student for task");
  return *it->second;
}

vit::VitModel& Framework::multitask_student() {
  ITASK_CHECK(multitask_student_ != nullptr,
              "Framework: prepare_quantized() first");
  return *multitask_student_;
}

const quant::QuantizedVit& Framework::quantized() const {
  ITASK_CHECK(quantized_ != nullptr, "Framework: no quantized model");
  return *quantized_;
}

void Framework::save_deployment(const std::string& directory) const {
  ITASK_CHECK(teacher_trained_, "save_deployment: pretrain_teacher() first");
  namespace fs = std::filesystem;
  fs::create_directories(directory);
  io::save_state_dict(teacher_->state_dict(),
                      (fs::path(directory) / "teacher.itsk").string());
  std::ofstream manifest(fs::path(directory) / "manifest.txt");
  ITASK_CHECK(manifest.good(), "save_deployment: cannot write manifest");
  manifest << "ITASK-DEPLOYMENT v1" << '\n';
  if (multitask_student_ != nullptr) {
    io::save_state_dict(multitask_student_->state_dict(),
                        (fs::path(directory) / "multitask.itsk").string());
    manifest << "multitask 1" << '\n';
  }
  for (const auto& [slot, student] : students_) {
    io::save_state_dict(
        student->state_dict(),
        (fs::path(directory) / ("student_" + std::to_string(slot) + ".itsk"))
            .string());
    manifest << "student " << slot << '\n';
  }
}

void Framework::load_deployment(const std::string& directory) {
  namespace fs = std::filesystem;
  std::ifstream manifest(fs::path(directory) / "manifest.txt");
  ITASK_CHECK(manifest.good(), "load_deployment: missing manifest in " +
                                   directory);
  std::string header;
  std::getline(manifest, header);
  ITASK_CHECK(header == "ITASK-DEPLOYMENT v1",
              "load_deployment: bad manifest header");
  teacher_->load_state_dict(io::load_state_dict(
      (fs::path(directory) / "teacher.itsk").string()));
  teacher_trained_ = true;

  std::string kind;
  while (manifest >> kind) {
    if (kind == "multitask") {
      int present = 0;
      manifest >> present;
      if (present != 1) continue;
      Rng fork = rng_.fork();
      multitask_student_ =
          std::make_shared<vit::VitModel>(options_.student_config, fork);
      multitask_student_->load_state_dict(io::load_state_dict(
          (fs::path(directory) / "multitask.itsk").string()));
      quantized_ = build_quantized(*multitask_student_, options_, fork);
    } else if (kind == "student") {
      int64_t slot = -1;
      manifest >> slot;
      ITASK_CHECK(slot >= 0, "load_deployment: bad student slot");
      Rng fork = rng_.fork();
      auto student =
          std::make_shared<vit::VitModel>(options_.student_config, fork);
      student->load_state_dict(io::load_state_dict(
          (fs::path(directory) /
           ("student_" + std::to_string(slot) + ".itsk"))
              .string()));
      // Deliberately do NOT advance next_slot_: the caller re-defines tasks
      // in the original order, so define_task() must hand out the same slot
      // numbers the saved students were keyed under.
      students_[slot] = std::move(student);
    } else {
      ITASK_CHECK(false, "load_deployment: unknown manifest entry " + kind);
    }
  }
}

double Framework::task_specific_model_mb() const {
  // FP32 student parameter footprint.
  Rng probe(1);
  vit::VitModel tmp(options_.student_config, probe);
  return static_cast<double>(tmp.parameter_count()) * 4.0 / (1024.0 * 1024.0);
}

double Framework::quantized_model_mb() const {
  if (quantized_ != nullptr) {
    return static_cast<double>(quantized_->quantized_weight_bytes()) /
           (1024.0 * 1024.0);
  }
  Rng probe(1);
  vit::VitModel tmp(options_.student_config, probe);
  return static_cast<double>(tmp.parameter_count()) / (1024.0 * 1024.0);
}

}  // namespace itask::core
