#include "lib/timed_provider.h"

#include "lib/spans.h"

namespace perfbench {

namespace {

using dhqp::Result;
using dhqp::Status;

class TimedRowset : public dhqp::Rowset {
 public:
  explicit TimedRowset(std::unique_ptr<dhqp::Rowset> inner)
      : inner_(std::move(inner)) {}

  const dhqp::Schema& schema() const override { return inner_->schema(); }
  // Parameterized remote streams are pulled a row at a time; such a pull is
  // a fetch of one row.
  Result<bool> Next(dhqp::Row* out) override {
    ScopedSpan span("connectors.fetch");
    return inner_->Next(out);
  }
  Result<bool> NextBatch(dhqp::RowBatch* out, int max_rows) override {
    ScopedSpan span("connectors.fetch");
    return inner_->NextBatch(out, max_rows);
  }
  Status Restart() override { return inner_->Restart(); }
  Result<int64_t> SkipRows(int64_t n) override { return inner_->SkipRows(n); }

 private:
  std::unique_ptr<dhqp::Rowset> inner_;
};

Result<std::unique_ptr<dhqp::Rowset>> WrapRowset(
    Result<std::unique_ptr<dhqp::Rowset>> opened) {
  if (!opened.ok()) return opened;
  return std::unique_ptr<dhqp::Rowset>(
      std::make_unique<TimedRowset>(std::move(opened).value()));
}

class TimedCommand : public dhqp::Command {
 public:
  explicit TimedCommand(std::unique_ptr<dhqp::Command> inner)
      : inner_(std::move(inner)) {}

  Status SetText(std::string text) override {
    return inner_->SetText(std::move(text));
  }
  Status BindParameter(const std::string& name,
                       const dhqp::Value& value) override {
    return inner_->BindParameter(name, value);
  }
  Result<std::unique_ptr<dhqp::Rowset>> Execute() override {
    ScopedSpan span("connectors.open");
    return WrapRowset(inner_->Execute());
  }
  Result<int64_t> ExecuteNonQuery() override {
    return inner_->ExecuteNonQuery();
  }

 private:
  std::unique_ptr<dhqp::Command> inner_;
};

class TimedSession : public dhqp::Session {
 public:
  explicit TimedSession(std::unique_ptr<dhqp::Session> inner)
      : inner_(std::move(inner)) {}

  Result<std::unique_ptr<dhqp::Rowset>> OpenRowset(
      const std::string& table) override {
    ScopedSpan span("connectors.open");
    return WrapRowset(inner_->OpenRowset(table));
  }
  Result<std::unique_ptr<dhqp::Command>> CreateCommand() override {
    auto command = inner_->CreateCommand();
    if (!command.ok()) return command;
    return std::unique_ptr<dhqp::Command>(
        std::make_unique<TimedCommand>(std::move(command).value()));
  }
  Result<std::vector<dhqp::TableMetadata>> ListTables() override {
    return inner_->ListTables();
  }
  Result<dhqp::TableMetadata> GetTableMetadata(
      const std::string& table) override {
    return inner_->GetTableMetadata(table);
  }
  Result<dhqp::ColumnStatistics> GetStatistics(
      const std::string& table, const std::string& column) override {
    return inner_->GetStatistics(table, column);
  }
  Result<std::unique_ptr<dhqp::Rowset>> OpenIndexRange(
      const std::string& table, const std::string& index,
      const dhqp::IndexRange& range) override {
    ScopedSpan span("connectors.open");
    return WrapRowset(inner_->OpenIndexRange(table, index, range));
  }
  Result<std::optional<dhqp::Row>> FetchByBookmark(
      const std::string& table, const dhqp::Value& bookmark) override {
    ScopedSpan span("connectors.fetch");
    return inner_->FetchByBookmark(table, bookmark);
  }
  Result<std::unique_ptr<dhqp::Rowset>> OpenIndexKeys(
      const std::string& table, const std::string& index,
      const dhqp::IndexRange& range) override {
    ScopedSpan span("connectors.open");
    return WrapRowset(inner_->OpenIndexKeys(table, index, range));
  }
  Result<int64_t> InsertRows(const std::string& table,
                             const std::vector<dhqp::Row>& rows) override {
    return inner_->InsertRows(table, rows);
  }
  Status BeginTransaction(int64_t txn_id) override {
    return inner_->BeginTransaction(txn_id);
  }
  Status PrepareTransaction(int64_t txn_id) override {
    return inner_->PrepareTransaction(txn_id);
  }
  Status CommitTransaction(int64_t txn_id) override {
    return inner_->CommitTransaction(txn_id);
  }
  Status AbortTransaction(int64_t txn_id) override {
    return inner_->AbortTransaction(txn_id);
  }

 private:
  std::unique_ptr<dhqp::Session> inner_;
};

class TimedDataSource : public dhqp::DataSource {
 public:
  explicit TimedDataSource(std::shared_ptr<dhqp::DataSource> inner)
      : inner_(std::move(inner)) {}

  Status Initialize(
      const std::map<std::string, std::string>& properties) override {
    return inner_->Initialize(properties);
  }
  const dhqp::ProviderCapabilities& capabilities() const override {
    return inner_->capabilities();
  }
  Result<std::unique_ptr<dhqp::Session>> CreateSession() override {
    auto session = inner_->CreateSession();
    if (!session.ok()) return session;
    return std::unique_ptr<dhqp::Session>(
        std::make_unique<TimedSession>(std::move(session).value()));
  }

 private:
  std::shared_ptr<dhqp::DataSource> inner_;
};

}  // namespace

std::shared_ptr<dhqp::DataSource> WrapTimed(
    std::shared_ptr<dhqp::DataSource> inner) {
  return std::make_shared<TimedDataSource>(std::move(inner));
}

}  // namespace perfbench
